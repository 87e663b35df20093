package storage

import (
	"bufio"
	"fmt"
	"io"

	"github.com/cpskit/atypical/internal/cluster"
	"github.com/cpskit/atypical/internal/cps"
)

// Cluster file layout, version 2 (little endian):
//
//	magic "ATYPCLU2" | frame (uvarint payloadLen | uint32 crc | payload)
//	payload: uvarint clusterCount, then per cluster:
//	         uvarint id, uvarint micros, uvarint len(children) + child ids,
//	         uvarint len(SF), per entry uvarint keyDelta + uvarint
//	         round(severity / SeverityQuantum), uvarint len(TF) likewise.
//
// Version 1 ("ATYPCLU1") is the same payload with no length/CRC framing;
// ReadClusters still decodes it, so forests saved before the framing
// change keep loading. Only version 2 is ever written: the CRC is what
// lets a crash-recovering load tell a torn or bit-rotted cluster file from
// a healthy one instead of trusting whatever uvarints it finds.

var (
	clusterMagicV1 = [8]byte{'A', 'T', 'Y', 'P', 'C', 'L', 'U', '1'}
	clusterMagic   = [8]byte{'A', 'T', 'Y', 'P', 'C', 'L', 'U', '2'}
)

// maxClusterPayload clamps the declared payload length of a cluster file
// (and the unframed remainder of a version-1 file): the length is
// untrusted bytes read before the CRC check, and real per-level cluster
// files are orders of magnitude smaller.
const maxClusterPayload = 256 << 20

// WriteClusters encodes clusters — features only, with child cluster IDs to
// preserve tree structure — and returns the bytes written. The encoded size
// of a micro-cluster set is the AC curve of Fig. 16. The payload is framed
// with its length and CRC32 so readers verify integrity end to end.
func WriteClusters(w io.Writer, cs []*cluster.Cluster) (int64, error) {
	var e encoder
	e.uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.uvarint(uint64(c.ID))
		e.uvarint(uint64(c.Micros))
		e.uvarint(uint64(len(c.Children)))
		for _, ch := range c.Children {
			e.uvarint(uint64(ch.ID))
		}
		putFeature(&e, c.SF, (*encoder).quantized)
		putFeature(&e, c.TF, (*encoder).quantized)
	}
	return writeFrame(w, clusterMagic[:], e.b)
}

// ReadClusters decodes clusters written by WriteClusters, verifying the
// version-2 CRC framing (version-1 files decode without it). Children are
// resolved among the decoded set when present; references to clusters
// outside the set are dropped (partial materialization stores levels
// separately). Any integrity failure returns an error wrapping ErrCorrupt
// (or ErrBadMagic) — never partial data. The returned clusters are
// hydrated.
func ReadClusters(r io.Reader) ([]*cluster.Cluster, error) {
	br := bufio.NewReader(r)
	magic, err := readMagic(br)
	if err != nil {
		return nil, err
	}
	var payload []byte
	switch magic {
	case clusterMagic:
		payload, err = readFrame(br, maxClusterPayload)
	case clusterMagicV1:
		// Version 1 has no frame: the payload is the rest of the stream.
		if payload, err = io.ReadAll(io.LimitReader(br, maxClusterPayload)); err != nil {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	default:
		return nil, ErrBadMagic
	}
	if err == nil {
		err = expectEOF(br, "payload")
	}
	if err != nil {
		return nil, err
	}
	d := decoder{b: payload}
	out := make([]*cluster.Cluster, d.count())
	childIDs := make([][]cluster.ID, len(out))
	byID := make(map[cluster.ID]*cluster.Cluster, len(out))
	for i := range out {
		id, micros := d.uvarint(), d.uvarint()
		kids := make([]cluster.ID, d.count())
		for k := range kids {
			kids[k] = cluster.ID(d.uvarint())
		}
		// SF decodes before TF: the literal's lexical order is the wire order.
		c := &cluster.Cluster{
			ID:     cluster.ID(id),
			Micros: int(micros),
			SF:     getFeature[cps.SensorID](&d, (*decoder).quantized),
			TF:     getFeature[cps.Window](&d, (*decoder).quantized),
		}
		c.Hydrate()
		out[i], childIDs[i], byID[c.ID] = c, kids, c
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	for i, c := range out {
		for _, kid := range childIDs[i] {
			if ch, ok := byID[kid]; ok {
				c.Children = append(c.Children, ch)
			}
		}
	}
	return out, nil
}

// putFeature encodes f as its length, then per entry the key delta and the
// severity in the codec's encoding.
func putFeature[K cluster.Key](e *encoder, f cluster.Feature[K], sev func(*encoder, cps.Severity)) {
	e.uvarint(uint64(len(f)))
	var prev K
	for _, en := range f {
		e.uvarint(uint64(en.Key - prev))
		sev(e, en.Sev)
		prev = en.Key
	}
}

// getFeature decodes a feature written by putFeature with the same
// severity encoding.
func getFeature[K cluster.Key](d *decoder, sev func(*decoder) cps.Severity) cluster.Feature[K] {
	f := make(cluster.Feature[K], d.count())
	var prev K
	for i := range f {
		prev += K(d.uvarint())
		f[i] = cluster.Entry[K]{Key: prev, Sev: sev(d)}
	}
	return f
}

// ClustersSize returns the encoded size of cs without keeping the bytes.
func ClustersSize(cs []*cluster.Cluster) int64 {
	n, err := WriteClusters(io.Discard, cs)
	if err != nil {
		panic(err)
	}
	return n
}
