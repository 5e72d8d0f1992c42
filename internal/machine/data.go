package machine

import (
	"fmt"
	"math"
)

// The host-side data interface: initializing program variables before a run
// and reading results after (bench.DataHost is the backend-independent
// subset). These accessors use Peek/Poke so they do not perturb the
// program's load/store accounting.

// typed resolves name to a variable of the wanted element type.
func (m *State) typed(name string, isInt bool) (*Var, error) {
	v := m.vars[name]
	if v == nil {
		return nil, fmt.Errorf("%s: no variable %q", m.backend, name)
	}
	if v.Int != isInt {
		want := "float"
		if isInt {
			want = "int"
		}
		return nil, fmt.Errorf("%s: %q is not %s", m.backend, name, want)
	}
	return v, nil
}

// elem resolves one element of a variable of the wanted type to its word
// address.
func (m *State) elem(name string, isInt bool, idx []int64) (int, error) {
	v, err := m.typed(name, isInt)
	if err != nil {
		return 0, err
	}
	if len(idx) != len(v.Dims) {
		return 0, fmt.Errorf("%s: %q has %d dims, got %d indices", m.backend, name, len(v.Dims), len(idx))
	}
	addr := int64(0)
	for k, ix := range idx {
		if ix < 0 || ix >= v.Dims[k] {
			return 0, fmt.Errorf("%s: index %d out of bounds for dim %d of %q", m.backend, ix, k, name)
		}
		addr = addr*v.Dims[k] + ix
	}
	return v.Region.Base + int(addr), nil
}

// SetFloat initializes a float variable element.
func (m *State) SetFloat(name string, v float64, idx ...int64) error {
	addr, err := m.elem(name, false, idx)
	if err != nil {
		return err
	}
	m.mem.Poke(addr, math.Float64bits(v))
	return nil
}

// SetInt initializes an int variable element.
func (m *State) SetInt(name string, v int64, idx ...int64) error {
	addr, err := m.elem(name, true, idx)
	if err != nil {
		return err
	}
	m.mem.Poke(addr, uint64(v))
	return nil
}

// Float reads a float variable element.
func (m *State) Float(name string, idx ...int64) (float64, error) {
	addr, err := m.elem(name, false, idx)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(m.mem.Peek(addr)), nil
}

// Int reads an int variable element.
func (m *State) Int(name string, idx ...int64) (int64, error) {
	addr, err := m.elem(name, true, idx)
	if err != nil {
		return 0, err
	}
	return int64(m.mem.Peek(addr)), nil
}

// FillFloat initializes every element of a float array via gen(flatIndex).
func (m *State) FillFloat(name string, gen func(flat int64) float64) error {
	v, err := m.typed(name, false)
	if err != nil {
		return err
	}
	for k := 0; k < v.Region.Size; k++ {
		m.mem.Poke(v.Region.Base+k, math.Float64bits(gen(int64(k))))
	}
	return nil
}

// FillInt initializes every element of an int array via gen(flatIndex).
func (m *State) FillInt(name string, gen func(flat int64) int64) error {
	v, err := m.typed(name, true)
	if err != nil {
		return err
	}
	for k := 0; k < v.Region.Size; k++ {
		m.mem.Poke(v.Region.Base+k, uint64(gen(int64(k))))
	}
	return nil
}

// Region returns the memory region of a variable (for targeted fault
// injection into a specific array).
func (m *State) Region(name string) (base, size int, err error) {
	v := m.vars[name]
	if v == nil {
		return 0, 0, fmt.Errorf("%s: no variable %q", m.backend, name)
	}
	return v.Region.Base, v.Region.Size, nil
}

// SnapshotFloats copies out a float array's contents (row-major).
func (m *State) SnapshotFloats(name string) ([]float64, error) {
	v, err := m.typed(name, false)
	if err != nil {
		return nil, err
	}
	out := make([]float64, v.Region.Size)
	for k := range out {
		out[k] = math.Float64frombits(m.mem.Peek(v.Region.Base + k))
	}
	return out, nil
}
