package tree

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ml"
)

// AppendBinary appends the tree's encoding to b: its Config, width and
// fitted flag, the node array as flat columns and the importances, so a
// decoded tree predicts bit-identically. The node columns are every
// node's i32 feature, then every node's f64 value, then each split
// node's f64 threshold and two i32 child links in node order; a leaf
// (feature -1) has no split fields, which keeps a leaf at 12 bytes.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	b = ml.AppendInt(b, m.MaxDepth)
	b = ml.AppendInt(b, m.MinSamplesSplit)
	b = ml.AppendInt(b, m.MinSamplesLeaf)
	b = ml.AppendInt(b, m.MaxFeatures)
	b = ml.AppendU64(b, m.Seed)
	b = ml.AppendInt(b, m.width)
	b = ml.AppendBool(b, m.fitted)
	b = ml.AppendU32(b, uint32(len(m.nodes)))
	for _, n := range m.nodes {
		b = ml.AppendU32(b, uint32(int32(n.feature)))
	}
	for _, n := range m.nodes {
		b = ml.AppendF64(b, n.value)
	}
	for i, n := range m.nodes {
		if n.feature < 0 {
			if math.Float64bits(n.threshold) != 0 || n.kids != [2]int32{} {
				return b, fmt.Errorf("tree: leaf %d carries split fields", i)
			}
			continue
		}
		b = ml.AppendF64(b, n.threshold)
		b = ml.AppendU32(b, uint32(n.kids[0]))
		b = ml.AppendU32(b, uint32(n.kids[1]))
	}
	return ml.AppendF64s(b, m.importances), nil
}

// UnmarshalBinary restores a tree written by AppendBinary. It refuses a
// node array Predict could not walk: a split must name a feature below
// the width and link to two later nodes, so every walk ends at a leaf.
func (m *Model) UnmarshalBinary(data []byte) error {
	d := ml.NewDecoder(data)
	m.MaxDepth = d.Int()
	m.MinSamplesSplit = d.Int()
	m.MinSamplesLeaf = d.Int()
	m.MaxFeatures = d.Int()
	m.Seed = d.U64()
	m.width = d.Int()
	m.fitted = d.Bool()
	n := d.Count(4 + 8)
	features, values := d.Bytes(4*n), d.Bytes(8*n)
	if d.Err() != nil {
		return d.Err()
	}
	m.nodes = make([]node, n)
	splits := 0
	for i := range m.nodes {
		m.nodes[i].feature = int(int32(binary.LittleEndian.Uint32(features[4*i:])))
		m.nodes[i].value = math.Float64frombits(binary.LittleEndian.Uint64(values[8*i:]))
		if m.nodes[i].feature >= 0 {
			splits++
		}
	}
	raw := d.Bytes(16 * splits)
	if d.Err() != nil {
		return d.Err()
	}
	for i := range m.nodes {
		nd := &m.nodes[i]
		if nd.feature < 0 {
			continue
		}
		nd.threshold = math.Float64frombits(binary.LittleEndian.Uint64(raw))
		nd.kids = [2]int32{int32(binary.LittleEndian.Uint32(raw[8:])), int32(binary.LittleEndian.Uint32(raw[12:]))}
		raw = raw[16:]
		if nd.feature >= m.width || nd.kids[0] <= int32(i) || int(nd.kids[0]) >= n || nd.kids[1] <= int32(i) || int(nd.kids[1]) >= n {
			return fmt.Errorf("tree: node %d splits on feature %d with children %v (width %d, %d nodes)", i, nd.feature, nd.kids, m.width, n)
		}
	}
	if m.fitted && n == 0 {
		return fmt.Errorf("tree: fitted tree without nodes")
	}
	m.importances = d.F64s()
	return d.Finish()
}
