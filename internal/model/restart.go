package model

import (
	"encoding/gob"
	"fmt"
	"io"
)

// checkpoint is the serialized prognostic state. Configuration (grid,
// solver) is not stored: a restart resumes on an identically configured
// model, which the header fields verify. NZ stays in the header because the
// file comes from outside the process.
type checkpoint struct {
	GridName  string
	Nx, Ny    int
	NZ        int
	StepCount int
	Eta, U, V []float64
	Temp      [][]float64
	StericRef []float64
}

// Save writes a restart checkpoint. The model can be resumed bit-for-bit
// with Restore on a model built from the same Config.
func (m *Model) Save(w io.Writer) error {
	cp := checkpoint{
		GridName: m.G.Name,
		Nx:       m.G.Nx, Ny: m.G.Ny,
		NZ:        nz,
		StepCount: m.StepCount,
		Eta:       m.Eta, U: m.U, V: m.V,
		Temp:      m.Temp,
		StericRef: m.stericRef,
	}
	if err := gob.NewEncoder(w).Encode(&cp); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Restore loads a checkpoint written by Save into this model. The model
// must have been built on the same grid, and the checkpoint must hold the
// model's nz layers.
func (m *Model) Restore(r io.Reader) error {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("model: restore: %w", err)
	}
	if cp.GridName != m.G.Name || cp.Nx != m.G.Nx || cp.Ny != m.G.Ny {
		return fmt.Errorf("model: checkpoint is for grid %q (%d×%d), model has %q (%d×%d)",
			cp.GridName, cp.Nx, cp.Ny, m.G.Name, m.G.Nx, m.G.Ny)
	}
	if cp.NZ != nz || len(cp.Temp) != nz {
		return fmt.Errorf("model: checkpoint has %d layers (%d stored), model has %d", cp.NZ, len(cp.Temp), nz)
	}
	if len(cp.Eta) != m.G.N() || len(cp.U) != m.G.N() || len(cp.V) != m.G.N() {
		return fmt.Errorf("model: checkpoint field lengths inconsistent with grid")
	}
	copy(m.Eta, cp.Eta)
	copy(m.U, cp.U)
	copy(m.V, cp.V)
	for l := range m.Temp {
		if len(cp.Temp[l]) != m.G.N() {
			return fmt.Errorf("model: checkpoint layer %d has wrong length", l)
		}
		copy(m.Temp[l], cp.Temp[l])
	}
	copy(m.stericRef, cp.StericRef)
	m.StepCount = cp.StepCount
	m.IterHistory = nil
	return nil
}
