package main

import "fmt"

// DefaultSeed selects each workload's own Spec input bytes, so the digests
// pinned in workloadTable hold for it. Any other seed regenerates the
// syscall input's content at the same length and in the same format.
const DefaultSeed = 0

// splitmix64 is the seeded generator behind every non-default input.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// seededInput returns the syscall input for one program and seed. spec is
// the input the workload's Spec built; the default seed returns it as is.
func seededInput(program string, spec []byte, seed uint64) ([]byte, error) {
	if seed == DefaultSeed {
		return spec, nil
	}
	rng := splitmix64(seed)
	switch program {
	case "dedup":
		return dedupInput(len(spec), &rng), nil
	case "blackscholes":
		return blackscholesInput(len(spec), &rng)
	case "vips":
		// vips synthesises its image in guest code and reads no input.
		return spec, nil
	}
	return nil, fmt.Errorf("no seeded input generator for %s", program)
}

// dedupInput keeps the Spec's layout — 512-byte regions, every third one
// highly repetitive so the dedupe hit path runs, the rest pseudo-random —
// and draws the repetitive period and the random bytes from the seed.
func dedupInput(n int, rng *splitmix64) []byte {
	const region = 512
	in := make([]byte, n)
	period := 5 + rng.intn(5)
	for i := range in {
		if (i/region)%3 == 0 {
			in[i] = byte(i % period)
		} else {
			in[i] = byte(rng.next())
		}
	}
	return in
}

// blackscholesInput writes n bytes of option records in the Spec's text
// format: five "DDD.DDD" fields per line, integer part 10..99.
func blackscholesInput(n int, rng *splitmix64) ([]byte, error) {
	const fields, recLen = 5, 5*7 + 1
	if n%recLen != 0 {
		return nil, fmt.Errorf("blackscholes input of %d bytes is not whole %d-byte records", n, recLen)
	}
	in := make([]byte, 0, n)
	for len(in) < n {
		for f := 0; f < fields; f++ {
			in = fmt.Appendf(in, "%03d.%03d", 10+rng.intn(90), rng.intn(1000))
		}
		in = append(in, '\n')
	}
	return in, nil
}
