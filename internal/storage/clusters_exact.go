package storage

import (
	"bufio"
	"io"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// Exact cluster wire format, version 1 (little endian):
//
//	magic "ATYPCLX1" | frame (uvarint payloadLen | uint32 crc | payload)
//	payload: uvarint clusterCount, then per cluster:
//	         uvarint id, uvarint micros,
//	         uvarint len(SF), per entry uvarint keyDelta + 8-byte raw
//	         IEEE-754 severity bits, uvarint len(TF) likewise.
//
// This is the shard wire protocol, not a persistence format: unlike the
// cluster files (clusters.go), which quantize severities by SeverityQuantum
// for compact storage, severities here travel as raw math.Float64bits so a
// coordinator gathering candidates from remote shards reconstructs clusters
// bit-identical to its own — the precondition for byte-identical sharded
// answers. Children are never encoded: only leaf micro-clusters cross the
// wire. Decoded clusters arrive hydrated (severity cache rebuilt).

var clusterExactMagic = [8]byte{'A', 'T', 'Y', 'P', 'C', 'L', 'X', '1'}

// WriteClustersExact encodes micro-clusters bit-exactly for shard transport
// and returns the bytes written.
func WriteClustersExact(w io.Writer, cs []*cluster.Cluster) (int64, error) {
	var e encoder
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.uvarint(uint64(c.ID))
		e.uvarint(uint64(c.Micros))
		putFeature(&e, c.SF, (*encoder).float64bits)
		putFeature(&e, c.TF, (*encoder).float64bits)
	}
	return writeFrame(w, clusterExactMagic[:], e.b)
}

// ReadClustersExact decodes clusters written by WriteClustersExact, verifying
// the length/CRC frame. Any integrity failure returns an error wrapping
// ErrCorrupt (or ErrBadMagic) — never partial data. The returned clusters
// are hydrated.
func ReadClustersExact(r io.Reader) ([]*cluster.Cluster, error) {
	br := bufio.NewReader(r)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	if magic != clusterExactMagic {
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
			Micros: int(d.uvarint()),
			SF:     getFeature[cps.SensorID](&d, (*decoder).float64bits),
			TF:     getFeature[cps.Window](&d, (*decoder).float64bits),
		}
		c.Hydrate()
		out[i] = c
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return out, nil
}
