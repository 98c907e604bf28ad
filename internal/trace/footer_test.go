package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// footerInfo is a parsed footer: the frame index, the stream's total event
// count, and (loss footers) the writer's recorded drop count. The readers
// parse the footer as a stream (readFooterFields); tests use this
// seek-to-the-trailer parse to find frame boundaries in encoded streams.
type footerInfo struct {
	frames  []frameEntry
	total   uint64
	dropped uint64
}

// parseFooterBody parses the footer from the byte after the 0xF6/0xF7
// marker through the trailing body CRC (i.e. the footer record minus its
// marker). hasLoss selects the loss-footer layout with its trailing
// droppedEvents field.
func parseFooterBody(data []byte, hasLoss bool) (*footerInfo, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		pos += n
		return v, nil
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	if n > maxFrameEvents {
		return nil, fmt.Errorf("%w: implausible frame count %d", ErrCorrupt, n)
	}
	info := &footerInfo{frames: make([]frameEntry, 0, n)}
	for i := uint64(0); i < n; i++ {
		ev, err := next()
		if err != nil {
			return nil, err
		}
		b, err := next()
		if err != nil {
			return nil, err
		}
		info.frames = append(info.frames, frameEntry{events: ev, bytes: b})
	}
	if info.total, err = next(); err != nil {
		return nil, err
	}
	if hasLoss {
		if info.dropped, err = next(); err != nil {
			return nil, err
		}
	}
	bodyLen := pos
	crc, err := next()
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(data)-pos)
	}
	if uint32(crc) != crc32.ChecksumIEEE(data[:bodyLen]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	return info, nil
}

// peekFooter reads the footer of a v3 stream through its fixed trailer
// without disturbing r's position. It returns nil when the source is not a
// complete v3 file.
func peekFooter(r io.ReadSeeker) *footerInfo {
	cur, err := r.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil
	}
	defer r.Seek(cur, io.SeekStart)
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil || end-cur < int64(len(magic))+1+trailerLen {
		return nil
	}
	var tail [trailerLen]byte
	if _, err := r.Seek(end-trailerLen, io.SeekStart); err != nil {
		return nil
	}
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil
	}
	if [4]byte(tail[4:8]) != trailerMagic {
		return nil
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footLen < 2 || footLen > end-cur-trailerLen {
		return nil
	}
	if _, err := r.Seek(end-trailerLen-footLen, io.SeekStart); err != nil {
		return nil
	}
	foot := make([]byte, footLen)
	if _, err := io.ReadFull(r, foot); err != nil {
		return nil
	}
	if foot[0] != footerByte && foot[0] != footerLossByte {
		return nil
	}
	info, err := parseFooterBody(foot[1:], foot[0] == footerLossByte)
	if err != nil {
		return nil
	}
	return info
}
