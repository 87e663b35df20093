package storage

import (
	"bufio"
	"io"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// Cluster file layout (little endian), one codec for saved forests and
// shard answers alike:
//
//	magic "ATYPCLX1" | frame (uvarint payloadLen | uint32 crc | payload)
//	payload: uvarint clusterCount, then per cluster:
//	         uvarint id, uvarint micros,
//	         uvarint len(SF), per entry uvarint keyDelta + 8-byte raw
//	         IEEE-754 severity bits, uvarint len(TF) likewise.
//
// Severities travel as raw math.Float64bits, so a decoded cluster is
// bit-identical to the one encoded: a coordinator gathering candidates from
// remote shards, and a system reloading a saved forest, both integrate
// exactly what the writer held — the precondition for byte-identical
// sharded and reloaded answers. IDs are kept, so a reloaded forest numbers
// its answers like the one that was saved. The retired quantized formats
// ("ATYPCLU1", "ATYPCLU2") are rejected as ErrBadMagic; atypforest rebuilds
// such a forest from its records.

var clusterMagic = [8]byte{'A', 'T', 'Y', 'P', 'C', 'L', 'X', '1'}

// maxClusterPayload clamps the declared payload length of a cluster file:
// the length is untrusted bytes read before the CRC check, and real
// per-level cluster files are orders of magnitude smaller.
const maxClusterPayload = 256 << 20

// WriteClustersExact encodes clusters bit-exactly and returns the bytes
// written. The encoded size of a micro-cluster set is the AC curve of
// Fig. 16.
func WriteClustersExact(w io.Writer, cs []*cluster.Cluster) (int64, error) {
	var e encoder
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.uvarint(uint64(c.ID))
		e.uvarint(uint64(c.Micros))
		putFeature(&e, c.SF)
		putFeature(&e, c.TF)
	}
	return writeFrame(w, clusterMagic[:], e.b)
}

// ReadClustersExact decodes clusters written by WriteClustersExact, verifying
// the length/CRC frame and that every feature passes cluster.Feature.Valid.
// Any integrity failure returns an error wrapping ErrCorrupt (or
// ErrBadMagic) — never partial data. The returned clusters are hydrated.
func ReadClustersExact(r io.Reader) ([]*cluster.Cluster, error) {
	br := bufio.NewReader(r)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	if magic != clusterMagic {
		return nil, ErrBadMagic
	}
	payload, err := readFrame(br, maxClusterPayload)
	if err == nil {
		err = expectEOF(br, "payload")
	}
	if err != nil {
		return nil, err
	}
	d := decoder{b: payload}
	out := make([]*cluster.Cluster, d.count())
	for i := range out {
		// Fields decode in the literal's lexical order, which is the wire order.
		c := &cluster.Cluster{
			ID:     cluster.ID(d.uvarint()),
			Micros: getMicros(&d),
			SF:     getFeature[cps.SensorID](&d),
			TF:     getFeature[cps.Window](&d),
		}
		c.Hydrate()
		out[i] = c
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// putFeature encodes f as its length, then per entry the key delta and the
// severity's raw bits.
func putFeature[K cluster.Key](e *encoder, f cluster.Feature[K]) {
	e.uvarint(uint64(len(f)))
	var prev K
	for _, en := range f {
		e.uvarint(uint64(en.Key - prev))
		e.float64bits(en.Sev)
		prev = en.Key
	}
}

// getMicros decodes a micro count, holding it to cluster.Cluster.Valid: a
// cluster summarizes at least one and at most cluster.MaxMicros
// micro-clusters, so integration can sum the counts without overflow.
// Anything else is corruption.
func getMicros(d *decoder) int {
	n := d.uvarint()
	if n < 1 || n > cluster.MaxMicros {
		d.fail("micro count %d out of range", n)
	}
	return int(n)
}

// getFeature decodes a feature written by putFeature, holding it to
// cluster.Feature.Valid: after the first key, a zero delta or one that
// wraps the key type breaks strict key order, and a severity must be
// finite and positive. Either is corruption.
func getFeature[K cluster.Key](d *decoder) cluster.Feature[K] {
	f := make(cluster.Feature[K], d.count())
	var prev K
	for i := range f {
		delta := d.uvarint()
		key := prev + K(delta)
		if uint64(K(delta)) != delta || i > 0 && key <= prev {
			d.fail("key delta %d after key %d breaks key order", delta, prev)
		}
		sev := d.float64bits()
		if !sev.Valid() {
			d.fail("severity %v is not finite and positive", sev)
		}
		f[i] = cluster.Entry[K]{Key: key, Sev: sev}
		prev = key
	}
	return f
}

// ClustersSize returns the encoded size of cs without keeping the bytes.
func ClustersSize(cs []*cluster.Cluster) int64 {
	n, err := WriteClustersExact(io.Discard, cs)
	if err != nil {
		panic(err)
	}
	return n
}
