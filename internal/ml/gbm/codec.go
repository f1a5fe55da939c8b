package gbm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/ml"
)

// AppendBinary appends the booster's encoding to b: its Config, base
// score, width and fitted flag, every stage's nodes as flat columns,
// the stage offsets and the per-feature bin edges, so a decoded booster
// predicts bit-identically. The node columns are every node's i16
// feature, then every node's f64 value, then each split node's f64
// threshold, two i32 stage-relative child links and u8 bin in node
// order; a leaf (feature -1) has no split fields.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	b = ml.AppendInt(b, m.NEstimators)
	b = ml.AppendF64(b, m.LearningRate)
	b = ml.AppendInt(b, m.MaxDepth)
	b = ml.AppendInt(b, m.MinChildSamples)
	b = ml.AppendF64(b, m.Lambda)
	b = ml.AppendInt(b, m.MaxBins)
	b = ml.AppendF64(b, m.Subsample)
	b = ml.AppendF64(b, m.ValidationFraction)
	b = ml.AppendInt(b, m.EarlyStoppingRounds)
	b = ml.AppendU64(b, m.Seed)
	b = ml.AppendF64(b, m.baseScore)
	b = ml.AppendInt(b, m.width)
	b = ml.AppendBool(b, m.fitted)
	b = ml.AppendU32(b, uint32(len(m.nodes)))
	for _, n := range m.nodes {
		b = binary.LittleEndian.AppendUint16(b, uint16(n.feature))
	}
	for _, n := range m.nodes {
		b = ml.AppendF64(b, n.value)
	}
	for i, n := range m.nodes {
		if n.feature < 0 {
			if math.Float64bits(n.threshold) != 0 || n.kids != [2]int32{} || n.bin != 0 {
				return b, fmt.Errorf("gbm: leaf %d carries split fields", i)
			}
			continue
		}
		b = ml.AppendF64(b, n.threshold)
		b = ml.AppendU32(b, uint32(n.kids[0]))
		b = ml.AppendU32(b, uint32(n.kids[1]))
		b = append(b, n.bin)
	}
	b = ml.AppendU32(b, uint32(len(m.stageStart)))
	for _, s := range m.stageStart {
		b = ml.AppendU32(b, uint32(s))
	}
	b = ml.AppendU32(b, uint32(len(m.edges)))
	for _, e := range m.edges {
		b = ml.AppendF64s(b, e)
	}
	return b, nil
}

// UnmarshalBinary restores a booster written by AppendBinary. It
// refuses stages Predict could not walk: the offsets must cut the node
// array into non-empty stages, and a split must name a feature below
// the width and link to two later nodes of its own stage.
func (m *Model) UnmarshalBinary(data []byte) error {
	d := ml.NewDecoder(data)
	m.NEstimators = d.Int()
	m.LearningRate = d.F64()
	m.MaxDepth = d.Int()
	m.MinChildSamples = d.Int()
	m.Lambda = d.F64()
	m.MaxBins = d.Int()
	m.Subsample = d.F64()
	m.ValidationFraction = d.F64()
	m.EarlyStoppingRounds = d.Int()
	m.Seed = d.U64()
	m.baseScore = d.F64()
	m.width = d.Int()
	m.fitted = d.Bool()
	n := d.Count(2 + 8)
	features, values := d.Bytes(2*n), d.Bytes(8*n)
	if d.Err() != nil {
		return d.Err()
	}
	m.nodes = make([]bnode, n)
	splits := 0
	for i := range m.nodes {
		m.nodes[i].feature = int16(binary.LittleEndian.Uint16(features[2*i:]))
		m.nodes[i].value = math.Float64frombits(binary.LittleEndian.Uint64(values[8*i:]))
		if m.nodes[i].feature >= 0 {
			splits++
		}
	}
	raw := d.Bytes(17 * splits)
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
		nd.bin = raw[16]
		raw = raw[17:]
	}
	stages := d.Count(4)
	raw = d.Bytes(4 * stages)
	if d.Err() != nil {
		return d.Err()
	}
	m.stageStart = make([]int32, stages)
	for i := range m.stageStart {
		m.stageStart[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	if err := m.checkStages(); err != nil {
		return err
	}
	m.edges = make([][]float64, d.Count(4))
	for i := range m.edges {
		m.edges[i] = d.F64s()
	}
	return d.Finish()
}

// checkStages validates the decoded stage offsets and node links.
func (m *Model) checkStages() error {
	if len(m.stageStart) == 0 {
		if len(m.nodes) > 0 {
			return errBadStages
		}
		return nil
	}
	if m.stageStart[0] != 0 || int(m.stageStart[len(m.stageStart)-1]) != len(m.nodes) {
		return errBadStages
	}
	for t := 0; t+1 < len(m.stageStart); t++ {
		lo, hi := m.stageStart[t], m.stageStart[t+1]
		if hi <= lo {
			return errBadStages
		}
		for i, nd := range m.nodes[lo:hi] {
			if nd.feature >= 0 && (int(nd.feature) >= m.width ||
				nd.kids[0] <= int32(i) || nd.kids[0] >= hi-lo || nd.kids[1] <= int32(i) || nd.kids[1] >= hi-lo) {
				return errBadStages
			}
		}
	}
	return nil
}

var errBadStages = errors.New("gbm: encoded stages do not form walkable trees")
