package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"sigil/internal/callgrind"
	"sigil/internal/core"
	"sigil/internal/trace"
)

// checkOutput applies every check that does not need a second run: the
// conservation laws a correct classification obeys, and agreement between
// the paths that carry the same facts (encoded and decoded events, written
// and re-read profiles). It returns the first violation.
func (w *workload) checkOutput(o *output) error {
	checks := []func(*output) error{
		checkEdgeConservation,
		checkReadBytes,
		checkProfileRoundTrip,
	}
	if w.reuse {
		checks = append(checks, checkReuse)
	}
	if w.events {
		checks = append(checks, checkEvents)
	}
	for _, c := range checks {
		if err := c(o); err != nil {
			return err
		}
	}
	return nil
}

// checkEdgeConservation: per-context aggregates and producer→consumer
// edges describe the same bytes.
func checkEdgeConservation(o *output) error {
	r := o.res
	var in, out core.CommStats
	for _, c := range r.Comm {
		in.InputUnique += c.InputUnique
		in.InputNonUnique += c.InputNonUnique
		out.OutputUnique += c.OutputUnique
		out.OutputNonUnique += c.OutputNonUnique
	}
	var eIn, eOut core.CommStats
	var startup, kernelOut, kernelIn uint64
	for _, e := range r.Edges {
		if e.Dst >= 0 {
			eIn.InputUnique += e.Unique
			eIn.InputNonUnique += e.NonUnique
		} else {
			kernelIn += e.Unique
		}
		switch {
		case e.Src >= 0:
			eOut.OutputUnique += e.Unique
			eOut.OutputNonUnique += e.NonUnique
		case e.Src == trace.CtxStartup:
			startup += e.Unique
		case e.Src == trace.CtxKernel:
			kernelOut += e.Unique
		}
	}
	switch {
	case in != eIn:
		return fmt.Errorf("context inputs %d/%d != edge sums %d/%d",
			in.InputUnique, in.InputNonUnique, eIn.InputUnique, eIn.InputNonUnique)
	case out != eOut:
		return fmt.Errorf("context outputs %d/%d != edges from contexts %d/%d",
			out.OutputUnique, out.OutputNonUnique, eOut.OutputUnique, eOut.OutputNonUnique)
	case r.StartupBytes != startup:
		return fmt.Errorf("startup bytes %d != startup edge sum %d", r.StartupBytes, startup)
	case r.KernelOutBytes != kernelOut:
		return fmt.Errorf("kernel-out bytes %d != kernel edge sum %d", r.KernelOutBytes, kernelOut)
	case r.KernelInBytes != kernelIn:
		return fmt.Errorf("kernel-in bytes %d != to-kernel edge sum %d", r.KernelInBytes, kernelIn)
	}
	return nil
}

// checkReadBytes: every byte the substrate loaded, plus every byte a
// syscall consumed, was classified.
func checkReadBytes(o *output) error {
	var loaded, sysIn uint64
	for _, n := range o.res.Profile.Nodes {
		loaded += n.Self.ReadBytes
		sysIn += n.Self.SysIn
	}
	if c := o.res.TotalCommunicated().TotalRead(); c != loaded+sysIn {
		return fmt.Errorf("classified %d read bytes, substrate loaded %d + syscalls %d", c, loaded, sysIn)
	}
	return nil
}

// checkReuse: re-use episodes partition into their buckets, and reused
// bytes fill the lifetime histograms exactly.
func checkReuse(o *output) error {
	var total core.ReuseStats
	for i := range o.res.Reuse {
		total.Add(o.res.Reuse[i])
	}
	total.Add(o.res.KernelReuse)
	if total.Episodes != total.ZeroReuse+total.Low+total.High {
		return fmt.Errorf("%d re-use episodes != %d+%d+%d buckets",
			total.Episodes, total.ZeroReuse, total.Low, total.High)
	}
	if total.ReusedBytes != total.Low+total.High {
		return fmt.Errorf("reused bytes %d != low+high %d", total.ReusedBytes, total.Low+total.High)
	}
	var mass uint64
	for _, v := range total.LifetimeHist {
		mass += v
	}
	if mass != total.ReusedBytes {
		return fmt.Errorf("lifetime histogram mass %d != reused bytes %d", mass, total.ReusedBytes)
	}
	if o.breakdown.Episodes == 0 {
		return errors.New("re-use breakdown saw no episodes")
	}
	return nil
}

// checkProfileRoundTrip: WriteProfile, ReadProfile, WriteProfile gives
// the same bytes. It reuses the analysis job's re-read profile.
func checkProfileRoundTrip(o *output) error {
	if o.reread == nil {
		return errors.New("profile was not re-read")
	}
	var again bytes.Buffer
	if err := core.WriteProfile(&again, o.reread); err != nil {
		return fmt.Errorf("rewriting profile: %w", err)
	}
	if !bytes.Equal(again.Bytes(), o.profile) {
		return errors.New("profile changed in a write/read/write round trip")
	}
	return nil
}

// checkEvents: the decoded stream holds every event the writer accepted,
// and calls nest: each leave closes an open call, comm and ops events
// belong to an open call, and nothing is left open at the end.
func checkEvents(o *output) error {
	t := o.trace
	if t == nil {
		return errors.New("event file was not decoded")
	}
	if got := uint64(len(t.Events) + len(t.Contexts)); got != o.emitted || t.EventsDropped != 0 {
		return fmt.Errorf("decoded %d events (%d dropped), writer accepted %d", got, t.EventsDropped, o.emitted)
	}
	open := map[uint64]bool{}
	for _, e := range t.Events {
		switch e.Kind {
		case trace.KindEnter:
			open[e.Call] = true
		case trace.KindLeave:
			if !open[e.Call] {
				return fmt.Errorf("leave of call %d that is not open", e.Call)
			}
			delete(open, e.Call)
		case trace.KindComm, trace.KindOps:
			if !open[e.Call] {
				return fmt.Errorf("%s event for call %d that is not open", e.Kind, e.Call)
			}
		}
	}
	if len(open) != 0 {
		return fmt.Errorf("%d calls still open at the end of the stream", len(open))
	}
	if o.crit == nil || o.crit.CriticalOps == 0 || o.crit.CriticalOps > o.crit.SerialOps {
		return errors.New("critical path is empty or longer than the serial program")
	}
	return nil
}

// checkAgreement compares a job with the runs of the same input made by
// other paths: the native run's retired instructions and a Callgrind-mode
// run's totals.
func checkAgreement(o *output, nativeInstrs uint64, cg *callgrind.Profile) error {
	if got := o.res.Profile.TotalInstrs; got != nativeInstrs {
		return fmt.Errorf("Sigil retired %d instructions, native run %d", got, nativeInstrs)
	}
	if cg == nil {
		return nil
	}
	if len(cg.Nodes) != len(o.res.Profile.Nodes) || cg.TotalInstrs != o.res.Profile.TotalInstrs {
		return fmt.Errorf("Callgrind mode built %d contexts over %d instructions, Sigil's substrate %d over %d",
			len(cg.Nodes), cg.TotalInstrs, len(o.res.Profile.Nodes), o.res.Profile.TotalInstrs)
	}
	if a, b := totalCosts(cg), totalCosts(o.res.Profile); a != b {
		return fmt.Errorf("Callgrind-mode totals %+v != Sigil substrate totals %+v", a, b)
	}
	return nil
}

func totalCosts(p *callgrind.Profile) callgrind.Costs {
	var c callgrind.Costs
	for _, n := range p.Nodes {
		c.Add(n.Self)
	}
	return c
}

// digest hashes the simulated statistics of a job — calltree costs,
// communication, edges, re-use and the event count — in a fixed text
// form, independent of the profile file format and of shadow-memory
// layout. Equal inputs must give equal digests.
func digest(o *output) string {
	h := sha256.New()
	r := o.res
	put := func(format string, args ...any) { fmt.Fprintf(h, format+"\n", args...) }
	put("instrs %d", r.Profile.TotalInstrs)
	for _, n := range r.Profile.Nodes {
		put("ctx %s %d %+v", n.Path(), n.Calls, n.Self)
	}
	for id, c := range r.Comm {
		put("comm %d %+v", id, c)
	}
	for _, e := range r.Edges {
		put("edge %+v", e)
	}
	for id, s := range r.Reuse {
		put("reuse %d %+v", id, s)
	}
	put("external %d %d %d", r.StartupBytes, r.KernelOutBytes, r.KernelInBytes)
	put("events %d", o.emitted)
	return hex.EncodeToString(h.Sum(nil))[:16]
}
