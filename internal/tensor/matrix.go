package tensor

import "fmt"

// Matrix is a dense row-major float32 matrix, used by fully connected
// operators (paper §III-C: input M×N, weight N×K, with M the batch size,
// fixed at 1 for inference).
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; index r*Cols + c.
	Data []float32
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative matrix dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float32, r*c)}
}

// MatrixFromSlice wraps data (length must be r*c) without copying.
//
//bitflow:keep test oracle: tensor and baseline tests build fixture matrices with it
func MatrixFromSlice(r, c int, data []float32) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: MatrixFromSlice length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 {
	off := r * m.Cols
	return m.Data[off : off+m.Cols : off+m.Cols]
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Data[c*m.Rows+r] = m.Data[r*m.Cols+c]
		}
	}
	return out
}

// String summarizes the matrix shape.
func (m *Matrix) String() string { return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols) }

// Sign returns a new matrix with sign(x) applied elementwise
// (+1 for x >= 0, −1 otherwise).
func (m *Matrix) Sign() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v >= 0 {
			out.Data[i] = 1
		} else {
			out.Data[i] = -1
		}
	}
	return out
}

// MatMul computes a × b with a naive triple loop: the correctness
// reference for float GEMM tests.
//
//bitflow:keep test oracle: baseline's GEMM tests compare against it
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %v × %v inner dim mismatch", a, b))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}
