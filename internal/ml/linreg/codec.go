package linreg

import "repro/internal/ml"

// AppendBinary appends the model's encoding to b: ridge penalty,
// weights, intercept and fitted flag.
func (m *Model) AppendBinary(b []byte) ([]byte, error) {
	b = ml.AppendF64(b, m.Ridge)
	b = ml.AppendF64s(b, m.weights)
	b = ml.AppendF64(b, m.intercept)
	return ml.AppendBool(b, m.fitted), nil
}

// UnmarshalBinary restores a model written by AppendBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	d := ml.NewDecoder(data)
	m.Ridge = d.F64()
	m.weights = d.F64s()
	m.intercept = d.F64()
	m.fitted = d.Bool()
	return d.Finish()
}
