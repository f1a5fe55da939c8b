package svr

import "repro/internal/ml"

// AppendBinary appends the model's encoding to b: the solver settings,
// the coefficients and the standardization statistics Predict
// de-standardizes through.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	b = ml.AppendF64(b, m.Epsilon)
	b = ml.AppendF64(b, m.C)
	b = ml.AppendInt(b, m.MaxEpochs)
	b = ml.AppendF64(b, m.Tol)
	b = ml.AppendU64(b, m.Seed)
	b = ml.AppendF64s(b, m.weights)
	b = ml.AppendF64(b, m.intercept)
	b = ml.AppendF64s(b, m.xMean)
	b = ml.AppendF64s(b, m.xStd)
	b = ml.AppendF64(b, m.yMean)
	b = ml.AppendF64(b, m.yStd)
	return ml.AppendBool(b, m.fitted), nil
}

// UnmarshalBinary restores a model written by AppendBinary. The
// statistics must cover every weight, or Predict could not run.
func (m *Model) UnmarshalBinary(data []byte) error {
	d := ml.NewDecoder(data)
	m.Epsilon = d.F64()
	m.C = d.F64()
	m.MaxEpochs = d.Int()
	m.Tol = d.F64()
	m.Seed = d.U64()
	m.weights = d.F64s()
	m.intercept = d.F64()
	m.xMean = d.F64s()
	m.xStd = d.F64s()
	m.yMean = d.F64()
	m.yStd = d.F64()
	m.fitted = d.Bool()
	if d.Err() == nil && (len(m.xMean) != len(m.weights) || len(m.xStd) != len(m.weights)) {
		d.Failf("svr: %d weights but %d means and %d deviations", len(m.weights), len(m.xMean), len(m.xStd))
	}
	return d.Finish()
}
