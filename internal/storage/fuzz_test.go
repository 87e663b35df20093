package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// Decoders must reject arbitrary input with an error — never panic, never
// hang, never fabricate records silently from garbage past the header.

func TestReadRecordsArbitraryBytesProperty(t *testing.T) {
	f := func(data []byte) bool {
		recs, err := ReadRecords(bytes.NewReader(data))
		// Either a clean error, or a (vanishingly unlikely) valid decode.
		return err != nil || recs != nil || len(data) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestReadClustersArbitraryBytesProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, err := ReadClustersExact(bytes.NewReader(data))
		_ = err
		return true // reaching here means no panic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Truncations and bit flips of a valid file must never decode to a
// *different* record multiset without an error.
func TestReadRecordsMutationsDetected(t *testing.T) {
	recs := randomCanonical(3000, 123)
	var buf bytes.Buffer
	if _, err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(5))

	for trial := 0; trial < 60; trial++ {
		data := make([]byte, len(valid))
		copy(data, valid)
		switch trial % 2 {
		case 0: // truncate
			data = data[:rng.Intn(len(data))]
		case 1: // flip a byte
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		got, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			continue // detected — good
		}
		// Extremely rare: a mutation that still decodes (e.g. flip inside
		// the header count matching by luck). It must then reproduce the
		// original records to be acceptable.
		if len(got) != len(recs) {
			t.Fatalf("trial %d: silent corruption -> %d records (want %d or error)", trial, len(got), len(recs))
		}
		for i := range got {
			want := recs[i]
			want.Severity = Quantize(want.Severity)
			if got[i] != want {
				t.Fatalf("trial %d: silent corruption at record %d", trial, i)
			}
		}
	}
}

// FuzzRecordReaderCorrupt drives the streaming reader over arbitrary bytes:
// it must never panic, never stream records past a detected corruption, and
// always agree with the batch reader about whether the input is valid.
func FuzzRecordReaderCorrupt(f *testing.F) {
	valid := func(n int, seed int64) []byte {
		var buf bytes.Buffer
		if _, err := WriteRecords(&buf, randomCanonical(n, seed)); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(100, 1))
	f.Add(valid(0, 2))
	truncated := valid(9000, 3)
	f.Add(truncated[:len(truncated)*2/3])
	flipped := valid(500, 4)
	flipped[len(flipped)/2] ^= 0x08
	f.Add(flipped)
	f.Add([]byte("ATYPREC1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := NewRecordReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var streamed []cps.Record
		for {
			rec, ok := rr.Next()
			if !ok {
				break
			}
			streamed = append(streamed, rec)
		}
		batch, batchErr := ReadRecords(bytes.NewReader(data))
		if (batchErr == nil) != (rr.Err() == nil) {
			t.Fatalf("stream err %v disagrees with batch err %v", rr.Err(), batchErr)
		}
		if batchErr != nil {
			return
		}
		if int64(len(streamed)) != rr.Total() {
			t.Fatalf("streamed %d records, declared total %d", len(streamed), rr.Total())
		}
		if len(streamed) != len(batch) {
			t.Fatalf("streamed %d records, batch decoded %d", len(streamed), len(batch))
		}
		for i := range streamed {
			if streamed[i] != batch[i] {
				t.Fatalf("record %d: stream %+v vs batch %+v", i, streamed[i], batch[i])
			}
		}
	})
}

// The streaming reader agrees with the batch reader on every prefix
// behavior: same records until the first error.
func TestReaderBatchAgreementUnderCorruption(t *testing.T) {
	recs := randomCanonical(5000, 7)
	var buf bytes.Buffer
	if _, err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)*3/4] ^= 0x10 // corrupt late in the file

	batch, batchErr := ReadRecords(bytes.NewReader(data))
	rr, err := NewRecordReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for {
		if _, ok := rr.Next(); !ok {
			break
		}
		streamed++
	}
	if (batchErr == nil) != (rr.Err() == nil) {
		t.Fatalf("batch err %v vs stream err %v", batchErr, rr.Err())
	}
	if batchErr == nil && streamed != len(batch) {
		t.Fatalf("stream decoded %d, batch %d", streamed, len(batch))
	}
}

// hugeFrameHeader is a file that opens with magic and head, then a frame
// header declaring payloadLen bytes, and ends there: no payload follows.
func hugeFrameHeader(magic [8]byte, head []byte, payloadLen uint64) []byte {
	b := append(append([]byte(nil), magic[:]...), head...)
	return append(binary.AppendUvarint(b, payloadLen), 0, 0, 0, 0)
}

// A short input declaring a huge payload must cost memory in proportion to
// the bytes that arrive, not to the declaration — it may come off the
// network from a shard or from a corrupted file.
func TestDecodersBoundAllocation(t *testing.T) {
	clusterFile := hugeFrameHeader(clusterMagic, nil, maxClusterPayload)
	// One declared record, in a block declaring the block payload cap.
	recordFile := hugeFrameHeader(recordMagic, []byte{1, 1}, maxBlockPayload)
	for _, tc := range []struct {
		name   string
		input  []byte
		decode func(io.Reader) error
	}{
		{"ReadClustersExact", clusterFile, func(r io.Reader) error { _, err := ReadClustersExact(r); return err }},
		{"ReadRecords", recordFile, func(r io.Reader) error { _, err := ReadRecords(r); return err }},
		{"RecordReader.Next", recordFile, func(r io.Reader) error {
			rr, err := NewRecordReader(r)
			if err != nil {
				return err
			}
			for _, ok := rr.Next(); ok; _, ok = rr.Next() {
			}
			return rr.Err()
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(bytes.NewReader(tc.input))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s allocated %d B decoding a %d-byte input", tc.name, alloc, len(tc.input))
		}
	}
}

// FuzzReadClusters drives the cluster decoder — the forest file reader and
// the shard wire reader alike — over arbitrary bytes. It must never panic,
// must classify every rejection as ErrCorrupt or ErrBadMagic, must reject
// the retired quantized formats as ErrBadMagic, and any set it accepts must
// re-encode and decode again to the same IDs, micro counts and severity
// bits.
func FuzzReadClusters(f *testing.F) {
	// Two micros and their merge: small seeds keep minimization quick.
	cs := goldenClusters()
	var x1 bytes.Buffer
	if _, err := WriteClustersExact(&x1, []*cluster.Cluster{cs[0], cs[1], cs[40]}); err != nil {
		f.Fatal(err)
	}
	retired := retiredClusterFiles(f)
	for _, valid := range [][]byte{retired[0], retired[1], x1.Bytes()} {
		f.Add(valid)
		f.Add(valid[:len(valid)*2/3])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0x08
		f.Add(flipped)
	}
	f.Add(hugeFrameHeader([8]byte(retired[1]), nil, maxClusterPayload))
	f.Add(hugeFrameHeader(clusterMagic, nil, maxClusterPayload))
	// A version-1 cluster whose one severity is a quantum count too large
	// to survive a round trip through float64.
	var e encoder
	for _, v := range []uint64{1, 7, 1, 0, 1, 0, math.MaxUint64, 0} {
		e.uvarint(v)
	}
	f.Add(append(retired[0][:8:8], e.b...))
	for _, frame := range invalidClusterFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadClustersExact(bytes.NewReader(data))
		if retiredClusterFile(data) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("retired format: got %v, want ErrBadMagic", err)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("unclassified rejection: %v", err)
			}
			return
		}
		for _, c := range got {
			if !c.Valid() {
				t.Fatalf("accepted cluster %d fails Valid: micros %d SF %v TF %v", c.ID, c.Micros, c.SF, c.TF)
			}
		}
		var buf bytes.Buffer
		if _, err := WriteClustersExact(&buf, got); err != nil {
			t.Fatal(err)
		}
		again, err := ReadClustersExact(&buf)
		if err != nil {
			t.Fatalf("re-encoded set rejected: %v", err)
		}
		if d := clusterSetDiff(again, got); d != "" {
			t.Fatalf("re-encoded set decodes differently: %s", d)
		}
	})
}
