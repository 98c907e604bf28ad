package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sigil/internal/faultinject"
)

// hashReader tees every byte delivered to the v1/v2 decoder into a running
// CRC-32 and byte count, so the Reader can verify the v2 footer and
// Salvage can report how many bytes of valid prefix it consumed.
type hashReader struct {
	r     *bufio.Reader
	crc   uint32
	bytes int64
}

func (h *hashReader) ReadByte() (byte, error) {
	b, err := h.r.ReadByte()
	if err == nil {
		h.crc = crc32.Update(h.crc, crc32.IEEETable, []byte{b})
		h.bytes++
	}
	return b, err
}

func (h *hashReader) readFull(p []byte) error {
	// Count partial reads too: on a mid-record cut the consumed bytes must
	// still show up in Salvage's byte accounting.
	n, err := io.ReadFull(h.r, p)
	h.crc = crc32.Update(h.crc, crc32.IEEETable, p[:n])
	h.bytes += int64(n)
	return err
}

// v3state is the sequential version-3 decoder: one frame is fetched,
// verified and decoded at a time, and Next serves from the decoded batch.
type v3state struct {
	br     *bufio.Reader
	fr     io.ReadCloser // reusable flate reader
	comp   []byte        // compressed payload scratch
	raw    []byte        // inflated payload scratch
	events []Event       // decoded current frame
	pos    int
	frames uint64
	read   int64 // bytes consumed after the magic
	valid  int64 // bytes consumed through the last verified frame/footer
}

func (s *v3state) readByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.read++
	}
	return b, err
}

func (s *v3state) readFull(p []byte) error {
	n, err := io.ReadFull(s.br, p)
	s.read += int64(n)
	return err
}

// Reader decodes an event stream (v1, v2 or v3). For v2+ streams, hitting
// end of input without the footer yields ErrTruncated instead of io.EOF,
// and checksums that disagree with the bytes read yield ErrCorrupt — so a
// clean io.EOF certifies the stream complete and checksummed. Version-3
// frames are verified and decoded one at a time; ReadAll decodes them on a
// worker pool instead.
type Reader struct {
	br         *bufio.Reader
	r          *hashReader // v1/v2 record decoding
	v3         *v3state    // non-nil once a v3 header is read
	started    bool
	version    int
	count      uint64 // events decoded so far
	footerSeen bool
	dropped    uint64 // loss footer's recorded write-side drop count
}

// NewReader returns a Reader over r. The source passes through the
// trace.read fault point, so the chaos sweep can inject read errors and
// in-flight corruption beneath the decoder.
func NewReader(r io.Reader) *Reader {
	br := bufio.NewReaderSize(faultinject.WrapReader(faultinject.TraceRead, r), 1<<16)
	return &Reader{br: br, r: &hashReader{r: br}}
}

// Version returns the stream's format version (0 before the header is read).
func (r *Reader) Version() int { return r.version }

// readHeader consumes and validates the magic; it is idempotent.
func (r *Reader) readHeader() error {
	if r.started {
		return nil
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, head); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	for i, m := range magic[:len(magic)-1] {
		if head[i] != m {
			return errors.New("trace: bad magic (not an event file)")
		}
	}
	switch head[len(magic)-1] {
	case 1, 2:
		r.version = int(head[len(magic)-1])
	case 3:
		r.version = 3
		r.v3 = &v3state{br: r.br}
	default:
		return fmt.Errorf("trace: unsupported format version %d", head[len(magic)-1])
	}
	r.started = true
	return nil
}

// trunc types a mid-record read failure: on a v2+ stream an EOF inside a
// record is a truncated file (ErrTruncated), matching the end-of-stream
// case; other causes pass through.
func (r *Reader) trunc(what string, err error) error {
	if r.version >= 2 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return fmt.Errorf("%w: %s cut short", ErrTruncated, what)
	}
	return fmt.Errorf("trace: truncated %s: %w", what, err)
}

// Next returns the next event, or io.EOF at a verified end of stream.
func (r *Reader) Next() (Event, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return Event{}, err
		}
	}
	if r.footerSeen {
		return Event{}, io.EOF
	}
	if r.version >= 3 {
		return r.nextV3()
	}
	return r.nextV1V2()
}

func (r *Reader) nextV1V2() (Event, error) {
	// Snapshot the digest before this record: the footer's checksum covers
	// everything up to (not including) the footer itself.
	preCRC := r.r.crc
	kb, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			if r.version >= 2 {
				return Event{}, ErrTruncated
			}
			return Event{}, io.EOF
		}
		return Event{}, err
	}
	if r.version >= 2 && kb == footerByte {
		wantCount, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		wantCRC, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		if wantCount != r.count || uint32(wantCRC) != preCRC {
			return Event{}, fmt.Errorf("%w: footer says %d events crc %#x, stream has %d events crc %#x",
				ErrCorrupt, wantCount, uint32(wantCRC), r.count, preCRC)
		}
		r.footerSeen = true
		return Event{}, io.EOF
	}
	var e Event
	e.Kind = Kind(kb)
	fields := [7]uint64{}
	for i := range fields {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, r.trunc("event", err)
		}
		fields[i] = v
	}
	e.Ctx = unzigzag(fields[0])
	e.Call = fields[1]
	e.SrcCtx = unzigzag(fields[2])
	e.SrcCall = fields[3]
	e.Bytes = fields[4]
	e.Ops = fields[5]
	e.Time = fields[6]
	nameLen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, r.trunc("event", err)
	}
	if nameLen > 0 {
		if nameLen > maxNameLen {
			return Event{}, fmt.Errorf("trace: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if err := r.r.readFull(name); err != nil {
			return Event{}, r.trunc("name", err)
		}
		e.Name = string(name)
	}
	r.count++
	return e, nil
}

func (r *Reader) nextV3() (Event, error) {
	s := r.v3
	for s.pos >= len(s.events) {
		if err := r.loadFrame(); err != nil {
			return Event{}, err
		}
		if r.footerSeen {
			return Event{}, io.EOF
		}
	}
	e := s.events[s.pos]
	s.pos++
	r.count++
	return e, nil
}

// loadFrame fetches, verifies and decodes the next frame, or validates the
// footer and trailer at end of stream.
func (r *Reader) loadFrame() error {
	s := r.v3
	marker, err := s.readByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return ErrTruncated
		}
		return err
	}
	switch marker {
	case frameByte:
		h, err := readFrameHeader(byteReaderFunc(s.readByte))
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: frame header cut short", ErrTruncated)
			}
			return err
		}
		if cap(s.comp) < h.compSize {
			s.comp = make([]byte, h.compSize)
		}
		s.comp = s.comp[:h.compSize]
		if err := s.readFull(s.comp); err != nil {
			return fmt.Errorf("%w: frame payload cut short", ErrTruncated)
		}
		raw, fr, err := inflateFrame(h, s.comp, s.raw, s.fr)
		s.raw, s.fr = raw, fr
		if err != nil {
			return err
		}
		s.events = eventBuf(s.events, h.events)
		if _, err := decodePayload(s.raw, s.events); err != nil {
			return err
		}
		s.pos = 0
		s.frames++
		s.valid = s.read
		return nil
	case footerByte, footerLossByte:
		return r.loadFooter(marker == footerLossByte)
	default:
		return fmt.Errorf("%w: unknown record marker %#x", ErrCorrupt, marker)
	}
}

// footerFields is a streaming-parsed, CRC-verified footer (trailer
// included): what both the sequential and parallel paths validate their
// decode against.
type footerFields struct {
	frameCount  uint64
	indexEvents uint64 // sum of the index entries' event counts
	total       uint64
	dropped     uint64 // loss footers only
}

// readFooterFields consumes the footer body after its marker, verifies the
// body CRC and the fixed trailer, and returns the parsed fields. It
// reconstructs the body bytes as it reads so the checksum covers exactly
// what the writer signed.
func (r *Reader) readFooterFields(hasLoss bool) (footerFields, error) {
	s := r.v3
	var ff footerFields
	var body []byte
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(byteReaderFunc(s.readByte))
		if err != nil {
			return 0, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		body = binary.AppendUvarint(body, v)
		return v, nil
	}
	var err error
	if ff.frameCount, err = readUvarint(); err != nil {
		return ff, err
	}
	if ff.frameCount > maxFrameEvents {
		return ff, fmt.Errorf("%w: implausible frame count %d", ErrCorrupt, ff.frameCount)
	}
	for i := uint64(0); i < ff.frameCount; i++ {
		ev, err := readUvarint()
		if err != nil {
			return ff, err
		}
		if _, err := readUvarint(); err != nil { // frame byte length
			return ff, err
		}
		ff.indexEvents += ev
	}
	if ff.total, err = readUvarint(); err != nil {
		return ff, err
	}
	if hasLoss {
		if ff.dropped, err = readUvarint(); err != nil {
			return ff, err
		}
	}
	wantCRC, err := binary.ReadUvarint(byteReaderFunc(s.readByte))
	if err != nil {
		return ff, fmt.Errorf("%w: footer cut short", ErrTruncated)
	}
	if uint32(wantCRC) != crc32.ChecksumIEEE(body) {
		return ff, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	var tail [trailerLen]byte
	if err := s.readFull(tail[:]); err != nil {
		return ff, fmt.Errorf("%w: trailer cut short", ErrTruncated)
	}
	if [4]byte(tail[4:8]) != trailerMagic {
		return ff, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	return ff, nil
}

// loadFooter validates the footer record and the fixed trailer against
// everything decoded so far.
func (r *Reader) loadFooter(hasLoss bool) error {
	s := r.v3
	ff, err := r.readFooterFields(hasLoss)
	if err != nil {
		return err
	}
	if ff.frameCount != s.frames || ff.total != r.count || ff.indexEvents != r.count {
		return fmt.Errorf("%w: footer says %d frames / %d events, stream has %d frames / %d events",
			ErrCorrupt, ff.frameCount, ff.total, s.frames, r.count)
	}
	r.dropped = ff.dropped
	r.footerSeen = true
	s.valid = s.read
	return nil
}

// byteReaderFunc adapts a readByte method to io.ByteReader.
type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

// bytesConsumed reports record bytes read so far (header excluded).
func (r *Reader) bytesConsumed() int64 {
	if r.v3 != nil {
		return r.v3.read
	}
	return r.r.bytes
}

// bytesValid reports the verified prefix: for v3 that is bytes through the
// last checksummed frame (a partially read frame does not count); for
// v1/v2 every consumed byte belonged to the valid record prefix.
func (r *Reader) bytesValid() int64 {
	if r.v3 != nil {
		return r.v3.valid
	}
	return r.r.bytes
}

// ReadAll loads an entire stream, separating context definitions from the
// event sequence. Version-3 streams are decoded with one worker per CPU;
// use ReadAllWorkers to pick the pool size explicitly.
func ReadAll(r io.Reader) (*Trace, error) {
	return ReadAllWorkers(r, runtime.GOMAXPROCS(0))
}

// ReadAllWorkers loads an entire stream. A version-3 stream is read whole
// first — every frame's header and compressed bytes, then the footer —
// and checked against its CRC-verified footer before any event is
// decoded: only when the footer's frame count and event total match the
// frame headers is the event slice allocated, once, at that total. Each
// frame then checksums, inflates and decodes straight into its own range
// of the slice, on a pool of `workers` goroutines (workers <= 1 decodes on
// the caller's goroutine through the same code). A damaged stream reports
// the lowest-indexed frame error first, then a fetch or truncation error,
// then a footer count mismatch — the order a sequential Reader meets them.
// v1/v2 streams decode sequentially.
func ReadAllWorkers(r io.Reader, workers int) (*Trace, error) {
	rd := NewReader(r)
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	if rd.version >= 3 {
		return readAllV3(rd, workers)
	}
	return readAllSequential(rd)
}

func readAllSequential(rd *Reader) (*Trace, error) {
	tr := &Trace{Contexts: make(map[int32]CtxInfo)}
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			tr.EventsDropped = rd.dropped
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		if e.Kind == KindDefCtx {
			tr.Contexts[e.Ctx] = CtxInfo{ID: e.Ctx, Parent: e.SrcCtx, Name: e.Name}
			continue
		}
		tr.Events = append(tr.Events, e)
	}
}

// v3frame is one fetched frame of a whole-file decode.
type v3frame struct {
	head  frameHeader
	comp  int   // offset of the compressed payload in the file-wide buffer
	first int   // index of the frame's first event in the event slice
	defs  int   // KindDefCtx records among the frame's events
	err   error // checksum, inflate or decode failure
}

func readAllV3(rd *Reader, workers int) (*Trace, error) {
	frames, comp, ff, fetchErr := rd.fetchFrames()
	var total uint64
	for i := range frames {
		frames[i].first = int(total)
		total += uint64(frames[i].head.events)
	}
	var events []Event
	var countErr error
	switch {
	case fetchErr != nil:
		// Reported below, after any frame error.
	case ff.frameCount != uint64(len(frames)) || ff.total != total || ff.indexEvents != total:
		countErr = fmt.Errorf("%w: footer says %d frames / %d events, stream has %d frames / %d events",
			ErrCorrupt, ff.frameCount, ff.total, len(frames), total)
	case total > 0:
		events = make([]Event, total)
	}
	// A stream already known to be bad is still decoded (into scratch) so
	// a damaged frame outranks the later error, as in a sequential read.
	if err := decodeFrames(frames, comp, events, workers); err != nil {
		return nil, err
	}
	if fetchErr != nil {
		return nil, fetchErr
	}
	if countErr != nil {
		return nil, countErr
	}
	tr := &Trace{Contexts: make(map[int32]CtxInfo), EventsDropped: ff.dropped}
	if events != nil {
		tr.Events = tr.moveContexts(frames, events)
	}
	return tr, nil
}

// fetchFrames reads every frame header and compressed payload, then the
// footer and trailer. The payloads are concatenated into one buffer that
// grows as bytes arrive, so a header overstating its payload costs no more
// memory than the stream holds. On a fetch error the frames read intact
// so far are returned with it.
func (r *Reader) fetchFrames() ([]v3frame, []byte, footerFields, error) {
	s := r.v3
	var frames []v3frame
	var comp []byte
	for {
		marker, err := s.readByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = ErrTruncated
			}
			return frames, comp, footerFields{}, err
		}
		switch marker {
		case frameByte:
			h, err := readFrameHeader(byteReaderFunc(s.readByte))
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					err = fmt.Errorf("%w: frame header cut short", ErrTruncated)
				}
				return frames, comp, footerFields{}, err
			}
			off := len(comp)
			if comp, err = s.appendFull(comp, h.compSize); err != nil {
				return frames, comp, footerFields{}, fmt.Errorf("%w: frame payload cut short", ErrTruncated)
			}
			frames = append(frames, v3frame{head: h, comp: off})
		case footerByte, footerLossByte:
			ff, err := r.readFooterFields(marker == footerLossByte)
			return frames, comp, ff, err
		default:
			return frames, comp, footerFields{}, fmt.Errorf("%w: unknown record marker %#x", ErrCorrupt, marker)
		}
	}
}

// appendFull appends exactly n stream bytes to dst, growing it a chunk at
// a time as the bytes arrive.
func (s *v3state) appendFull(dst []byte, n int) ([]byte, error) {
	for n > 0 {
		chunk := min(n, 1<<16)
		off := len(dst)
		dst = slices.Grow(dst, chunk)[:off+chunk]
		if err := s.readFull(dst[off:]); err != nil {
			return dst[:off], err
		}
		n -= chunk
	}
	return dst, nil
}

// decodeFrames checksums, inflates and decodes every frame, on up to
// `workers` goroutines that claim frames in order. Each frame decodes into
// its own range of events or, when events is nil, into its decoder's
// scratch, so a stream already known to be bad still surfaces its frame
// errors without allocating what its headers claim. It returns the
// lowest-indexed frame's error.
func decodeFrames(frames []v3frame, comp []byte, events []Event, workers int) error {
	if workers = min(workers, len(frames)); workers <= 1 {
		var d frameDecoder
		for i := range frames {
			d.decode(&frames[i], comp, events)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var d frameDecoder
				for i := int(next.Add(1) - 1); i < len(frames); i = int(next.Add(1) - 1) {
					d.decode(&frames[i], comp, events)
				}
			}()
		}
		wg.Wait()
	}
	for i := range frames {
		if frames[i].err != nil {
			return frames[i].err
		}
	}
	return nil
}

// frameDecoder is one goroutine's reusable inflate state and scratch.
type frameDecoder struct {
	fr      io.ReadCloser
	raw     []byte
	scratch []Event
}

func (d *frameDecoder) decode(f *v3frame, comp []byte, events []Event) {
	h := f.head
	var err error
	d.raw, d.fr, err = inflateFrame(h, comp[f.comp:f.comp+h.compSize], d.raw, d.fr)
	if err != nil {
		f.err = err
		return
	}
	var dst []Event
	if events != nil {
		dst = events[f.first : f.first+h.events]
	} else {
		d.scratch = eventBuf(d.scratch, h.events)
		dst = d.scratch
	}
	f.defs, f.err = decodePayload(d.raw, dst)
}

// moveContexts moves the KindDefCtx records out of the decoded events into
// t.Contexts, in stream order, closing each gap with one copy, and returns
// the remaining events.
func (t *Trace) moveContexts(frames []v3frame, events []Event) []Event {
	kept, next := 0, 0 // events[:kept] is final; events[next:] not yet moved
	for _, f := range frames {
		if f.defs == 0 {
			continue
		}
		for i := f.first; i < f.first+f.head.events; i++ {
			if e := &events[i]; e.Kind == KindDefCtx {
				t.Contexts[e.Ctx] = CtxInfo{ID: e.Ctx, Parent: e.SrcCtx, Name: e.Name}
				kept += copy(events[kept:], events[next:i])
				next = i + 1
			}
		}
	}
	kept += copy(events[kept:], events[next:])
	clear(events[kept:])
	return events[:kept]
}
