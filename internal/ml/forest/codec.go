package forest

import (
	"encoding/binary"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// AppendBinary appends the forest's encoding to b: its Config, width,
// fitted flag and out-of-bag estimate, then each member tree as a
// u32 length followed by the tree's own encoding.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	b = ml.AppendInt(b, m.NEstimators)
	b = ml.AppendInt(b, m.MaxDepth)
	b = ml.AppendInt(b, m.MinSamplesLeaf)
	b = ml.AppendInt(b, m.MaxFeatures)
	b = ml.AppendU64(b, m.Seed)
	b = ml.AppendBool(b, m.ComputeOOB)
	b = ml.AppendInt(b, m.width)
	b = ml.AppendBool(b, m.fitted)
	b = ml.AppendF64(b, m.oobMAE)
	b = ml.AppendInt(b, m.oobCovered)
	b = ml.AppendBool(b, m.hasOOB)
	b = ml.AppendU32(b, uint32(len(m.trees)))
	for _, t := range m.trees {
		at := len(b)
		b = ml.AppendU32(b, 0) // length, patched below
		var err error
		if b, err = t.AppendBinary(b); err != nil {
			return b, err
		}
		binary.LittleEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b, nil
}

// UnmarshalBinary restores a forest written by AppendBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	d := ml.NewDecoder(data)
	m.NEstimators = d.Int()
	m.MaxDepth = d.Int()
	m.MinSamplesLeaf = d.Int()
	m.MaxFeatures = d.Int()
	m.Seed = d.U64()
	m.ComputeOOB = d.Bool()
	m.width = d.Int()
	m.fitted = d.Bool()
	m.oobMAE = d.F64()
	m.oobCovered = d.Int()
	m.hasOOB = d.Bool()
	n := d.Count(4)
	if d.Err() != nil {
		return d.Err()
	}
	m.trees = make([]*tree.Model, n)
	for i := range m.trees {
		raw := d.Bytes(d.Count(1))
		if d.Err() != nil {
			return d.Err()
		}
		m.trees[i] = new(tree.Model)
		if err := m.trees[i].UnmarshalBinary(raw); err != nil {
			return err
		}
	}
	return d.Finish()
}
