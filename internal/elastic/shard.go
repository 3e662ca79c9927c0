// Package elastic is the fault-recovery layer over the numeric
// runtime: versioned checkpoints of the full training state
// (checkpoint.go), a resharder that maps that state between arbitrary
// parallelization plans (this file), and a supervisor that closes the
// paper's bottleneck-alleviation loop at execution time — train,
// lose a device mid-iteration, core.Replan on the degraded cluster,
// reshard the last checkpoint onto the new plan, resume (Supervise in
// churn.go).
//
// The reshard contract is exactness: sharding is pure partitioning
// (every scalar of every tensor lives in exactly one shard), so
// A→assemble→B→assemble round trips are bitwise identity, and a
// fault-resume run continues the identical training trajectory the
// uninterrupted run would have followed.
package elastic

import (
	"fmt"

	"aceso/internal/config"
	"aceso/internal/model"
	"aceso/internal/runtime"
	"aceso/internal/tensor"
)

// TensorKind identifies which of a parameter's tensors a shard slices:
// the weight/bias themselves or one of Adam's four moment buffers.
type TensorKind uint8

// The tensor kinds a checkpoint can carry, mirroring runtime.Params.
const (
	KindW TensorKind = iota
	KindB
	KindMW
	KindVW
	KindMB
	KindVB
	numTensorKinds
)

var kindNames = [numTensorKinds]string{"W", "B", "MW", "VW", "MB", "VB"}

// String implements fmt.Stringer.
func (k TensorKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("TensorKind(%d)", int(k))
}

// TensorShard is a rectangular slice of one parameter tensor as it
// lives on one device rank: the sub-matrix [RowOff, RowOff+Rows) ×
// [ColOff, ColOff+Cols) of the FullRows×FullCols tensor of op Op.
type TensorShard struct {
	Op                 int
	Kind               TensorKind
	RowOff, ColOff     int
	Rows, Cols         int
	FullRows, FullCols int
	Data               []float64 // row-major, len == Rows*Cols
}

// elems returns the scalar count of the shard.
func (s *TensorShard) elems() int { return s.Rows * s.Cols }

// RankShard is the checkpointed state owned by one device rank.
type RankShard struct {
	Rank    int
	Tensors []TensorShard
}

// State is a complete sharded training state: runtime.Params cut along
// a specific config's tensor-parallel boundaries, plus the scalar
// state (optimizer step, RNG seed cursor, optimizer choice) that a
// resume needs to continue the same trajectory.
type State struct {
	Step  int
	Seed  int64
	Opt   runtime.Optimizer
	Ranks []RankShard
}

// sliceKind captures how one op's tensors are cut across its tp group.
type sliceKind int

const (
	sliceNone sliceKind = iota // full tensors on the stage's first rank
	sliceCols                  // column-parallel: W and B column-cut
	sliceRows                  // row-parallel: W row-cut, B on rank 0
)

// opSlicing decides the shard layout for op j under setting set.
func opSlicing(g *model.Graph, j int, set *config.OpSetting) sliceKind {
	if g.Ops[j].Kind != model.KindMatMul || set.TP <= 1 {
		return sliceNone
	}
	if g.Ops[j].Dims[set.Dim].Name == "col" {
		return sliceCols
	}
	return sliceRows
}

// subMat copies the rectangle [r0, r0+rows) × [c0, c0+cols) of m.
func subMat(m *tensor.Mat, r0, c0, rows, cols int) []float64 {
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		copy(out[i*cols:(i+1)*cols], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+cols])
	}
	return out
}

// ShardState cuts the full training state p along cfg's parallelization
// boundaries into per-rank shards. Weights replicated across a
// data-parallel group are checkpointed once, on the group's first
// replica (they are identical by construction — the runtime applies
// the same summed update on every replica). The shard data is copied:
// the returned State is independent of p.
func ShardState(g *model.Graph, cfg *config.Config, p *runtime.Params) (*State, error) {
	p.EnsureOptState()
	st := &State{Step: p.Step, Seed: p.Seed, Opt: p.Opt}
	byRank := map[int]*RankShard{}
	rank := func(r int) *RankShard {
		rs, ok := byRank[r]
		if !ok {
			rs = &RankShard{Rank: r}
			byRank[r] = rs
		}
		return rs
	}

	add := func(r int, op int, kind TensorKind, m *tensor.Mat, r0, c0, rows, cols int) {
		rank(r).Tensors = append(rank(r).Tensors, TensorShard{
			Op: op, Kind: kind, RowOff: r0, ColOff: c0, Rows: rows, Cols: cols,
			FullRows: m.Rows, FullCols: m.Cols,
			Data: subMat(m, r0, c0, rows, cols),
		})
	}
	type kindMat struct {
		kind TensorKind
		m    *tensor.Mat
	}
	// wLike/bLike pair each primary tensor with its Adam moments so the
	// moments always follow their tensor's slicing.
	wLike := func(op int) []kindMat {
		out := []kindMat{{KindW, p.W[op]}}
		if p.MW != nil {
			out = append(out, kindMat{KindMW, p.MW[op]}, kindMat{KindVW, p.VW[op]})
		}
		return out
	}
	bLike := func(op int) []kindMat {
		out := []kindMat{{KindB, p.B[op]}}
		if p.MB != nil {
			out = append(out, kindMat{KindMB, p.MB[op]}, kindMat{KindVB, p.VB[op]})
		}
		return out
	}

	for si := range cfg.Stages {
		stage := &cfg.Stages[si]
		firstDev := cfg.FirstDev(si)
		for j := stage.Start; j < stage.End; j++ {
			w := p.W[j]
			if w == nil {
				continue // op carries no parameters
			}
			set := stage.Setting(j)
			b := p.B[j]
			switch opSlicing(g, j, set) {
			case sliceCols:
				if w.Cols%set.TP != 0 || b.Cols%set.TP != 0 {
					return nil, fmt.Errorf("elastic: op %d cols %d not divisible by tp %d", j, w.Cols, set.TP)
				}
				cs := w.Cols / set.TP
				for t := 0; t < set.TP; t++ {
					for _, kv := range wLike(j) {
						add(firstDev+t, j, kv.kind, kv.m, 0, t*cs, w.Rows, cs)
					}
					for _, kv := range bLike(j) {
						add(firstDev+t, j, kv.kind, kv.m, 0, t*cs, 1, cs)
					}
				}
			case sliceRows:
				if w.Rows%set.TP != 0 {
					return nil, fmt.Errorf("elastic: op %d rows %d not divisible by tp %d", j, w.Rows, set.TP)
				}
				rs := w.Rows / set.TP
				for t := 0; t < set.TP; t++ {
					for _, kv := range wLike(j) {
						add(firstDev+t, j, kv.kind, kv.m, t*rs, 0, rs, w.Cols)
					}
				}
				// Row-parallel bias is applied after the all-reduce: it is
				// not sharded; the tp group's first rank owns it whole.
				for _, kv := range bLike(j) {
					add(firstDev, j, kv.kind, kv.m, 0, 0, 1, b.Cols)
				}
			default:
				for _, kv := range wLike(j) {
					add(firstDev, j, kv.kind, kv.m, 0, 0, w.Rows, w.Cols)
				}
				for _, kv := range bLike(j) {
					add(firstDev, j, kv.kind, kv.m, 0, 0, 1, b.Cols)
				}
			}
		}
	}

	// Deterministic rank order (map iteration is not).
	for r := 0; r < cfg.TotalDevices(); r++ {
		if rs, ok := byRank[r]; ok {
			st.Ranks = append(st.Ranks, *rs)
		}
	}
	return st, nil
}

// tensorKey identifies one full tensor across shards.
type tensorKey struct {
	op   int
	kind TensorKind
}

// AssembleState reconstructs the full runtime.Params from a sharded
// State, verifying exact coverage: every scalar of every tensor must be
// written by exactly one shard — a gap or an overlap is a corruption
// (or a resharder bug) reported as an error, never silently absorbed.
// The caller attaches Arch for transformer graphs.
func AssembleState(st *State) (*runtime.Params, error) {
	fulls := map[tensorKey]*tensor.Mat{}
	covered := map[tensorKey][]uint8{}
	for ri := range st.Ranks {
		for ti := range st.Ranks[ri].Tensors {
			sh := &st.Ranks[ri].Tensors[ti]
			if sh.Kind >= numTensorKinds {
				return nil, fmt.Errorf("elastic: op %d has unknown tensor kind %d", sh.Op, sh.Kind)
			}
			if sh.Rows < 0 || sh.Cols < 0 || sh.RowOff < 0 || sh.ColOff < 0 ||
				sh.RowOff+sh.Rows > sh.FullRows || sh.ColOff+sh.Cols > sh.FullCols {
				return nil, fmt.Errorf("elastic: op %d %v shard %dx%d@(%d,%d) outside full %dx%d",
					sh.Op, sh.Kind, sh.Rows, sh.Cols, sh.RowOff, sh.ColOff, sh.FullRows, sh.FullCols)
			}
			if len(sh.Data) != sh.elems() {
				return nil, fmt.Errorf("elastic: op %d %v shard has %d elems, want %d",
					sh.Op, sh.Kind, len(sh.Data), sh.elems())
			}
			key := tensorKey{sh.Op, sh.Kind}
			full, ok := fulls[key]
			if !ok {
				full = tensor.New(sh.FullRows, sh.FullCols)
				fulls[key] = full
				covered[key] = make([]uint8, sh.FullRows*sh.FullCols)
			}
			if full.Rows != sh.FullRows || full.Cols != sh.FullCols {
				return nil, fmt.Errorf("elastic: op %d %v shards disagree on full shape (%dx%d vs %dx%d)",
					sh.Op, sh.Kind, full.Rows, full.Cols, sh.FullRows, sh.FullCols)
			}
			cov := covered[key]
			for i := 0; i < sh.Rows; i++ {
				for c := 0; c < sh.Cols; c++ {
					idx := (sh.RowOff+i)*full.Cols + sh.ColOff + c
					if cov[idx] != 0 {
						return nil, fmt.Errorf("elastic: op %d %v element (%d,%d) covered twice",
							sh.Op, sh.Kind, sh.RowOff+i, sh.ColOff+c)
					}
					cov[idx] = 1
					full.Data[idx] = sh.Data[i*sh.Cols+c]
				}
			}
		}
	}
	for key, cov := range covered {
		for idx, c := range cov {
			if c == 0 {
				return nil, fmt.Errorf("elastic: op %d %v element %d uncovered (gap in shards)",
					key.op, key.kind, idx)
			}
		}
	}

	p := &runtime.Params{
		W: map[int]*tensor.Mat{}, B: map[int]*tensor.Mat{},
		Opt: st.Opt, Step: st.Step, Seed: st.Seed,
	}
	hasMoments := false
	for key := range fulls {
		if key.kind != KindW && key.kind != KindB {
			hasMoments = true
			break
		}
	}
	if hasMoments {
		p.MW, p.VW = map[int]*tensor.Mat{}, map[int]*tensor.Mat{}
		p.MB, p.VB = map[int]*tensor.Mat{}, map[int]*tensor.Mat{}
	}
	for key, full := range fulls {
		switch key.kind {
		case KindW:
			p.W[key.op] = full
		case KindB:
			p.B[key.op] = full
		case KindMW:
			p.MW[key.op] = full
		case KindVW:
			p.VW[key.op] = full
		case KindMB:
			p.MB[key.op] = full
		case KindVB:
			p.VB[key.op] = full
		}
	}
	return p, nil
}

// Reshard maps a state checkpointed under one config onto config `to`:
// assemble the full tensors, then cut them along the new plan's
// boundaries. Because both halves are pure partitioning over float64
// storage, any A→B→A round trip is bitwise identity.
func Reshard(g *model.Graph, to *config.Config, st *State) (*State, error) {
	p, err := AssembleState(st)
	if err != nil {
		return nil, fmt.Errorf("elastic: reshard assemble: %w", err)
	}
	out, err := ShardState(g, to, p)
	if err != nil {
		return nil, fmt.Errorf("elastic: reshard cut: %w", err)
	}
	return out, nil
}

// BytesMoved estimates the data movement a reshard from `from` to `to`
// implies: for every pair of overlapping shard rectangles of the same
// tensor, the overlap must travel unless source and destination are the
// same device. mapRank translates a state's logical ranks to physical
// devices (e.g. hardware.Cluster.PhysOf for a degraded cluster, where
// logical rank r of the new plan is a different physical GPU than
// logical rank r of the old one); nil means identity on both sides.
func BytesMoved(from, to *State, mapFrom, mapTo func(int) int) int64 {
	ident := func(r int) int { return r }
	if mapFrom == nil {
		mapFrom = ident
	}
	if mapTo == nil {
		mapTo = ident
	}
	type span struct {
		rank                       int
		rowOff, colOff, rows, cols int
	}
	src := map[tensorKey][]span{}
	for ri := range from.Ranks {
		for ti := range from.Ranks[ri].Tensors {
			sh := &from.Ranks[ri].Tensors[ti]
			src[tensorKey{sh.Op, sh.Kind}] = append(src[tensorKey{sh.Op, sh.Kind}],
				span{from.Ranks[ri].Rank, sh.RowOff, sh.ColOff, sh.Rows, sh.Cols})
		}
	}
	var bytes int64
	for ri := range to.Ranks {
		for ti := range to.Ranks[ri].Tensors {
			sh := &to.Ranks[ri].Tensors[ti]
			dst := mapTo(to.Ranks[ri].Rank)
			for _, s := range src[tensorKey{sh.Op, sh.Kind}] {
				if mapFrom(s.rank) == dst {
					continue
				}
				rows := overlap1D(s.rowOff, s.rows, sh.RowOff, sh.Rows)
				cols := overlap1D(s.colOff, s.cols, sh.ColOff, sh.Cols)
				bytes += int64(rows) * int64(cols) * 8
			}
		}
	}
	return bytes
}

// overlap1D returns the length of the intersection of [aOff, aOff+aLen)
// and [bOff, bOff+bLen).
func overlap1D(aOff, aLen, bOff, bLen int) int {
	lo := aOff
	if bOff > lo {
		lo = bOff
	}
	hi := aOff + aLen
	if bOff+bLen < hi {
		hi = bOff + bLen
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
