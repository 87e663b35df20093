package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/cpskit/atypical/internal/cps"
)

// Every CRC-protected unit — a record block, an ATYPCLX1 cluster file or
// shard answer — is one frame (little endian):
//
//	uvarint payloadLen | uint32 crc32-IEEE(payload) | payload
//
// writeFrame and readFrame are the only code that knows this layout.

// frameChunk is the most readFrame allocates ahead of payload bytes that
// have actually arrived: the declared length is untrusted until the CRC
// checks, so a short header claiming a huge payload costs one chunk, not
// the claim.
const frameChunk = 64 << 10

// writeFrame writes head (the bytes in front of the frame: a magic or a
// block's record count), then the frame holding payload, and returns the
// bytes written.
func writeFrame(w io.Writer, head, payload []byte) (int64, error) {
	hdr := append(make([]byte, 0, len(head)+binary.MaxVarintLen64+4), head...)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	n, err := w.Write(hdr)
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(payload)
	return int64(n + m), err
}

// readFrame reads one frame whose declared payload length may not exceed
// limit and returns the CRC-verified payload. Memory grows with the bytes
// received, never with the declared length.
func readFrame(br *bufio.Reader, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: frame length: %v", ErrCorrupt, err)
	}
	if n > limit {
		return nil, fmt.Errorf("%w: absurd frame length %d", ErrCorrupt, n)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: frame crc: %v", ErrCorrupt, err)
	}
	payload := make([]byte, 0, min(n, frameChunk))
	for rest := n; rest > 0; {
		k := int(min(rest, frameChunk))
		payload = slices.Grow(payload, k)
		if _, err := io.ReadFull(br, payload[len(payload):len(payload)+k]); err != nil {
			return nil, fmt.Errorf("%w: frame payload: %v", ErrCorrupt, err)
		}
		payload = payload[:len(payload)+k]
		rest -= uint64(k)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return payload, nil
}

// readMagic reads a file's 8-byte format magic.
func readMagic(br *bufio.Reader) ([8]byte, error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return magic, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	return magic, nil
}

// expectEOF checks that nothing follows a complete file: trailing bytes
// mean a count or length was corrupted low, so they are reported rather
// than silently dropped.
func expectEOF(br *bufio.Reader, what string) error {
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w: data past %s", ErrCorrupt, what)
	} else if err != io.EOF {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// encoder appends payload fields to b.
type encoder struct{ b []byte }

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// quantized writes Quantize(s) as a count of SeverityQuantum (the record
// encoding). The division is exact: the quantum is a power of two.
func (e *encoder) quantized(s cps.Severity) {
	e.uvarint(uint64(Quantize(s) / SeverityQuantum))
}

// float64bits writes s as its raw IEEE-754 bits (the cluster encoding).
func (e *encoder) float64bits(s cps.Severity) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(float64(s)))
}

// decoder reads payload fields from b with bounds checks. The first
// failure sticks: later reads return zero values and done reports it, so
// decoding loops need no per-field error checks — count keeps them short.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[k:]
	return v
}

// count reads an element count. Every element takes at least one byte, so
// a count above the bytes left is corrupt; that bound is what makes
// preallocating from it safe.
func (d *decoder) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// quantized reads a severity written by encoder.quantized. A count above
// 2^53 (2^43 severity units) comes from no real writer, and near 2^64 it
// would decode to a value that re-encodes differently, so it is corrupt.
func (d *decoder) quantized() cps.Severity {
	q := d.uvarint()
	if q > 1<<53 {
		d.fail("severity quantum count %d out of range", q)
		return 0
	}
	return cps.Severity(float64(q) * SeverityQuantum)
}

func (d *decoder) float64bits() cps.Severity {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated severity")
		return 0
	}
	bits := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return cps.Severity(math.Float64frombits(bits))
}

// done returns the first decoding error, or reports unconsumed payload
// bytes as corruption.
func (d *decoder) done() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing payload bytes", len(d.b))
	}
	return d.err
}
