package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/cpskit/atypical/internal/cps"
)

// RecordReader decodes a record file incrementally, one block at a time, so
// streaming consumers never materialize the whole dataset. The zero value
// is not usable; use NewRecordReader.
type RecordReader struct {
	br    *bufio.Reader
	total uint64
	read  uint64

	block      []cps.Record
	blockPos   int
	prevWindow cps.Window
	prevSensor cps.SensorID
	eofChecked bool
	err        error
}

// NewRecordReader validates the file header and prepares incremental
// decoding.
func NewRecordReader(r io.Reader) (*RecordReader, error) {
	br := bufio.NewReader(r)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	if magic != recordMagic {
		return nil, ErrBadMagic
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: record count: %v", ErrCorrupt, err)
	}
	return &RecordReader{br: br, total: total}, nil
}

// Total returns the number of records the file declares. The value is an
// untrusted on-disk count: callers preallocating from it must clamp (see
// capHint) — the reader itself never allocates proportionally to it.
func (rr *RecordReader) Total() int64 { return int64(rr.total) }

// Next returns the next record. ok is false at end of stream or on error;
// check Err afterwards.
func (rr *RecordReader) Next() (rec cps.Record, ok bool) {
	if rr.err != nil {
		return cps.Record{}, false
	}
	if rr.blockPos >= len(rr.block) {
		if rr.read >= rr.total {
			// The declared count is exhausted; the stream must be too.
			// Trailing bytes mean the header count was corrupted low, so
			// surface that instead of silently dropping records.
			if !rr.eofChecked {
				rr.eofChecked = true
				rr.err = expectEOF(rr.br, "declared record count")
			}
			return cps.Record{}, false
		}
		if err := rr.loadBlock(); err != nil {
			rr.err = err
			return cps.Record{}, false
		}
	}
	rec = rr.block[rr.blockPos]
	rr.blockPos++
	rr.read++
	return rec, true
}

// Err returns the first decoding error encountered, or nil at clean EOF.
func (rr *RecordReader) Err() error { return rr.err }

// loadBlock decodes the next CRC-protected block into rr.block.
func (rr *RecordReader) loadBlock() error {
	n, err := binary.ReadUvarint(rr.br)
	if err != nil {
		return fmt.Errorf("%w: block header: %v", ErrCorrupt, err)
	}
	// The record count sits outside the block's CRC: clamp it against what
	// the writer can produce before allocating or decoding anything. The
	// writer never emits an empty block, and Next needs a record from each.
	if n == 0 || n > blockSize {
		return fmt.Errorf("%w: absurd block record count %d", ErrCorrupt, n)
	}
	if rr.read+n > rr.total {
		return fmt.Errorf("%w: block overruns declared record count", ErrCorrupt)
	}
	payload, err := readFrame(rr.br, maxBlockPayload)
	if err != nil {
		return err
	}
	if cap(rr.block) < int(n) {
		rr.block = make([]cps.Record, 0, n) // n is clamped to blockSize above
	} else {
		rr.block = rr.block[:0]
	}
	rr.blockPos = 0
	d := decoder{b: payload}
	for i := uint64(0); i < n; i++ {
		wd, sraw := d.uvarint(), d.uvarint()
		window := rr.prevWindow + cps.Window(wd)
		sensor := cps.SensorID(sraw)
		if wd == 0 {
			sensor += rr.prevSensor
		}
		rr.block = append(rr.block, cps.Record{Sensor: sensor, Window: window, Severity: d.quantized()})
		rr.prevWindow, rr.prevSensor = window, sensor
	}
	return d.done()
}
