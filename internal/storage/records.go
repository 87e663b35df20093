// Package storage implements the on-disk formats: a compact block-encoded
// record file for CPS datasets and one exact cluster codec, ATYPCLX1
// (clusters.go), that serves both saved forests and shard answers on the
// wire. Both formats feed the model-size comparison of Fig. 16 (AE =
// serialized events, AC = serialized clusters, OC/MC = cube cells) and let
// cmd tools persist datasets and forests between runs. Records quantize
// severities; clusters keep their exact bits, so a reloaded forest or a
// gathered shard answer integrates exactly like the original.
//
// Every CRC-protected unit — a record block, a cluster file, a shard
// answer — is one frame (frame.go): uvarint payloadLen | uint32 crc32 |
// payload. Decoders treat all input as hostile: counts and lengths are
// clamped before use, and memory grows with the bytes actually received,
// never with a length a header declares. Every rejection wraps ErrCorrupt
// or ErrBadMagic.
//
// Record file layout (little endian):
//
//	magic "ATYPREC1" | uvarint recordCount | blocks...
//	block: uvarint n | frame (uvarint payloadLen | uint32 crc | payload)
//	payload: n records, delta-encoded in canonical (window, sensor) order:
//	  uvarint windowDelta (vs previous record)
//	  uvarint sensorValue (delta vs previous sensor when windowDelta == 0,
//	                       absolute otherwise)
//	  uvarint Quantize(severity) / SeverityQuantum
//
// Severities are quantized to SeverityQuantum on write; Quantize gives the
// value a round trip returns. At 1/1024 minute (~60 ms of atypical duration)
// the quantization is far below sensor resolution.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"

	"github.com/cpskit/atypical/internal/cps"
)

// SeverityQuantum is the storage resolution of severities, in severity units
// (minutes for the default measure).
const SeverityQuantum = 1.0 / 1024

// Quantize returns the severity value that survives a write/read round trip:
// s rounded to the nearest multiple of SeverityQuantum, except that a
// positive severity never rounds to 0 but to one quantum, so a severity
// passing cps.Severity.Valid still passes it after the round trip.
func Quantize(s cps.Severity) cps.Severity {
	q := math.Round(float64(s) / SeverityQuantum)
	if q == 0 && s > 0 {
		q = 1
	}
	return cps.Severity(q * SeverityQuantum)
}

var recordMagic = [8]byte{'A', 'T', 'Y', 'P', 'R', 'E', 'C', '1'}

// blockSize is the number of records per CRC-protected block.
const blockSize = 8192

// maxBlockPayload clamps a block's declared payload length; real blocks
// stay far below it.
const maxBlockPayload = 64 << 20

// Sentinel errors of the storage package; everything an exported function
// returns wraps one of these or passes the underlying cause through with
// %w (the errwrap analyzer proves it).
var (
	ErrBadMagic = errors.New("storage: not a record file (bad magic)")
	ErrCorrupt  = errors.New("storage: corrupt record file")
	// ErrUnknownDataset reports a dataset name absent from the catalog.
	ErrUnknownDataset = errors.New("storage: unknown dataset")
	// ErrInvalidName reports a dataset name the catalog refuses to store.
	ErrInvalidName = errors.New("storage: invalid dataset name")
)

// WriteRecords encodes records — which must be in canonical (window, sensor)
// order — to w. It returns the number of bytes written.
func WriteRecords(w io.Writer, recs []cps.Record) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	hdr := binary.AppendUvarint(append([]byte(nil), recordMagic[:]...), uint64(len(recs)))
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}
	var e encoder
	for start := 0; start < len(recs); start += blockSize {
		end := min(start+blockSize, len(recs))
		e.b = e.b[:0]
		var prev cps.Record
		if start > 0 {
			prev = recs[start-1]
		}
		for _, r := range recs[start:end] {
			wd := uint64(r.Window - prev.Window)
			e.uvarint(wd)
			if wd == 0 {
				// Sensors strictly increase within a window; the initial
				// prev.Sensor of 0 makes the first delta the absolute value.
				e.uvarint(uint64(r.Sensor - prev.Sensor))
			} else {
				e.uvarint(uint64(r.Sensor))
			}
			e.quantized(r.Severity)
			prev = r
		}
		if _, err := writeFrame(bw, binary.AppendUvarint(nil, uint64(end-start)), e.b); err != nil {
			return cw.n, err
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadRecords decodes a record file written by WriteRecords, returning the
// records in canonical order with severities quantized.
func ReadRecords(r io.Reader) ([]cps.Record, error) {
	rr, err := NewRecordReader(r)
	if err != nil {
		return nil, err
	}
	recs := make([]cps.Record, 0, capHint(uint64(rr.Total())))
	for rec, ok := rr.Next(); ok; rec, ok = rr.Next() {
		recs = append(recs, rec)
	}
	if err := rr.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// RecordsSize returns the encoded size of recs without materializing the
// bytes — Fig. 16's AE measurement uses it on per-event record lists.
func RecordsSize(recs []cps.Record) int64 {
	n, err := WriteRecords(io.Discard, recs)
	if err != nil {
		// io.Discard cannot fail; an error here is a programming bug.
		panic(err)
	}
	return n
}

// capHint bounds slice preallocation by untrusted on-disk counts; the slice
// still grows to the real size, but a corrupt header cannot force a huge
// allocation up front.
func capHint(n uint64) int {
	const max = 1 << 20
	if n > max {
		return max
	}
	return int(n)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
