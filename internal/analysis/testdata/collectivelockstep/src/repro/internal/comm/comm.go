// Package comm is a testdata stand-in for repro/internal/comm: just enough
// of the Rank and Shard surfaces (collectives, lockstep accessors,
// rank-local fields, the per-rank pass) for the collectivelockstep analyzer
// to resolve method calls against.
package comm

// World mirrors the shared collective configuration.
type World struct {
	NRank int
}

// Rank mirrors the per-rank handle.
type Rank struct {
	ID     int
	World  *World
	Blocks []int
}

// AllReduce is a collective.
func (r *Rank) AllReduce(vals []float64) []float64 { return vals }

// Barrier is a collective.
func (r *Rank) Barrier() {}

// Exchange is a collective.
func (r *Rank) Exchange(fields [][]float64) {}

// ExchangeMulti is a collective.
func (r *Rank) ExchangeMulti(levels [][][]float64) {}

// ReduceFailed is a lockstep accessor: identical on every rank.
func (r *Rank) ReduceFailed() bool { return false }

// ReduceSeq is a lockstep accessor: identical on every rank.
func (r *Rank) ReduceSeq() int64 { return 0 }

// Clock is rank-local state (virtual elapsed time differs per rank).
func (r *Rank) Clock() float64 { return 0 }

// Shard mirrors the per-shard handle of a shard program.
type Shard struct {
	ID    int
	Ranks []*Rank
}

// Each is the per-rank pass.
func (sh *Shard) Each(yield func(int, *Rank) bool) {
	for i, r := range sh.Ranks {
		if !yield(i, r) {
			return
		}
	}
}

// AllReduce is a collective.
func (sh *Shard) AllReduce(vals [][]float64) []float64 { return vals[0] }

// Exchange is a collective.
func (sh *Shard) Exchange(fields [][][]float64) {}

// ExchangeMulti is a collective.
func (sh *Shard) ExchangeMulti(levels [][][][]float64) {}
