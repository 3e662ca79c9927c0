package config

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"aceso/internal/model"
)

func mustBalanced(t *testing.T, g *model.Graph, devices, stages, mbs int) *Config {
	t.Helper()
	c, err := Balanced(g, devices, stages, mbs)
	if err != nil {
		t.Fatalf("Balanced(%d devices, %d stages): %v", devices, stages, err)
	}
	return c
}

func TestDeviceSplit(t *testing.T) {
	cases := []struct {
		total, stages int
		want          []int
	}{
		{16, 3, []int{4, 4, 8}},
		{32, 5, []int{4, 4, 8, 8, 8}},
		{8, 3, []int{2, 2, 4}},
		{4, 3, []int{1, 1, 2}},
		{32, 4, []int{8, 8, 8, 8}},
		{1, 1, []int{1}},
		{24, 2, []int{8, 16}},
	}
	for _, tc := range cases {
		got, err := DeviceSplit(tc.total, tc.stages)
		if err != nil {
			t.Errorf("DeviceSplit(%d, %d): %v", tc.total, tc.stages, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("DeviceSplit(%d, %d) = %v, want %v", tc.total, tc.stages, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("DeviceSplit(%d, %d) = %v, want %v", tc.total, tc.stages, got, tc.want)
				break
			}
		}
	}
	if _, err := DeviceSplit(2, 3); err == nil {
		t.Error("DeviceSplit(2, 3) should fail")
	}
	if _, err := DeviceSplit(0, 1); err == nil {
		t.Error("DeviceSplit(0, 1) should fail")
	}
}

// Property: DeviceSplit always returns powers of two summing to total.
func TestDeviceSplitProperty(t *testing.T) {
	f := func(tRaw, sRaw uint8) bool {
		total := 1 << (tRaw % 7) // 1..64
		stages := int(sRaw%8) + 1
		got, err := DeviceSplit(total, stages)
		if err != nil {
			return total < stages // only legitimate failure
		}
		sum := 0
		for _, d := range got {
			if !IsPow2(d) {
				return false
			}
			sum += d
		}
		return sum == total && len(got) == stages
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpSplitBalance(t *testing.T) {
	g := model.Uniform(100, 1e9, 1e6, 1e5, 64)
	ranges, err := OpSplit(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		n := r[1] - r[0]
		if n < 20 || n > 30 {
			t.Errorf("stage %d got %d uniform ops, want ≈25", i, n)
		}
	}
}

func TestOpSplitSkewed(t *testing.T) {
	// With 4× heavier ops at the end, the last stage must hold fewer
	// ops than the first for a FLOPs-balanced split.
	g := model.Skewed(100, 1e9, 1e6, 1e5, 0.1, 64)
	ranges, err := OpSplit(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := ranges[0][1] - ranges[0][0]
	last := ranges[3][1] - ranges[3][0]
	if last >= first {
		t.Errorf("last stage has %d ops, first has %d; want fewer in last", last, first)
	}
	// Cover: contiguous, complete.
	if ranges[0][0] != 0 || ranges[3][1] != 100 {
		t.Errorf("ranges don't cover the model: %v", ranges)
	}
	for i := 1; i < 4; i++ {
		if ranges[i][0] != ranges[i-1][1] {
			t.Errorf("ranges not contiguous: %v", ranges)
		}
	}
}

func TestOpSplitErrors(t *testing.T) {
	g := model.Uniform(3, 1e9, 1e6, 1e5, 64)
	if _, err := OpSplit(g, 4); err == nil {
		t.Error("OpSplit with more stages than ops should fail")
	}
	if _, err := OpSplit(g, 0); err == nil {
		t.Error("OpSplit(0 stages) should fail")
	}
}

func TestBalancedValidates(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 64)
	for _, tc := range []struct{ dev, st int }{{16, 4}, {16, 3}, {8, 1}, {4, 4}, {1, 1}} {
		c := mustBalanced(t, g, tc.dev, tc.st, 1)
		if err := c.Validate(g, tc.dev); err != nil {
			t.Errorf("Balanced(%d, %d) invalid: %v", tc.dev, tc.st, err)
		}
		if c.NumStages() != tc.st {
			t.Errorf("stages = %d, want %d", c.NumStages(), tc.st)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	fresh := func() *Config { return mustBalanced(t, g, 8, 2, 4) }

	c := fresh()
	c.MicroBatch = 3 // does not divide batch 64... actually it doesn't divide 64
	if err := c.Validate(g, 8); err == nil {
		t.Error("non-dividing microbatch not caught")
	}

	c = fresh()
	c.Stages[0].Devices = 3
	if err := c.Validate(g, 8); err == nil {
		t.Error("non-power-of-two devices not caught")
	}

	c = fresh()
	c.Stages[1].Start++ // gap between stages
	c.Stages[1].Ops = c.Stages[1].Ops[1:]
	if err := c.Validate(g, 8); err == nil {
		t.Error("op-range gap not caught")
	}

	c = fresh()
	c.Stages[0].Ops[0].TP = 2 // tp·dp != devices
	if err := c.Validate(g, 8); err == nil {
		t.Error("tp·dp mismatch not caught")
	}

	c = fresh()
	c.Stages[0].Ops[0].Dim = 5
	if err := c.Validate(g, 8); err == nil {
		t.Error("out-of-range dim not caught")
	}

	c = fresh()
	if err := c.Validate(g, 16); err == nil {
		t.Error("device-count mismatch not caught")
	}

	c = fresh()
	c.MicroBatch = 0
	if err := c.Validate(g, 8); err == nil {
		t.Error("zero microbatch not caught")
	}
}

func TestValidateDPDividesMicrobatch(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 2)
	for j := range c.Stages[0].Ops {
		c.Stages[0].Ops[j] = OpSetting{TP: 1, DP: 4, Dim: 0}
	}
	// dp=4 does not divide mbs=2.
	if err := c.Validate(g, 8); err == nil {
		t.Error("dp not dividing microbatch not caught")
	}
	c.MicroBatch = 4
	if err := c.Validate(g, 8); err != nil {
		t.Errorf("mbs=4 dp=4 should be valid: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	d := c.Clone()
	d.Stages[0].Ops[0].Recompute = true
	d.MicroBatch = 8
	if c.Stages[0].Ops[0].Recompute {
		t.Error("Clone shares op settings with original")
	}
	if c.MicroBatch != 4 {
		t.Error("Clone shares scalar state")
	}
}

func TestHashDistinguishesAndMatches(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	a := mustBalanced(t, g, 8, 2, 4)
	b := a.Clone()
	if a.Hash() != b.Hash() || a.Key() != b.Key() {
		t.Error("clone hash or key differs")
	}
	if a.Canonical() != b.Canonical() {
		t.Error("clone canonical differs")
	}
	b.MutOp(0, 3, func(op *OpSetting) { op.Recompute = true })
	if a.Hash() == b.Hash() || a.Key() == b.Key() {
		t.Error("recompute flag not reflected in hash or key")
	}
	c := a.Clone()
	c.SetMicroBatch(8)
	if a.Hash() == c.Hash() || a.Key() == c.Key() {
		t.Error("microbatch not reflected in hash or key")
	}
	d := a.Clone()
	d.MutOp(0, 0, func(op *OpSetting) { op.Dim = 1 })
	if a.Hash() == d.Hash() || a.Key() == d.Key() {
		t.Error("dim not reflected in hash or key")
	}
}

// TestHashIsFNVOfCanonical pins Hash to its historical definition —
// FNV-1a of the canonical form — and to one recorded value: the hash
// orders equal-score candidates and seeds pipesim's skew streams, so a
// changed value changes searches and simulations.
func TestHashIsFNVOfCanonical(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	c.MutOp(1, 9, func(op *OpSetting) { op.Recompute, op.Dim = true, 1 })
	h := fnv.New64a()
	h.Write([]byte(c.Canonical()))
	if got, want := c.Hash(), h.Sum64(); got != want {
		t.Errorf("Hash = %x, FNV-1a of Canonical = %x", got, want)
	}
	if got, want := c.Hash(), uint64(0x4944deae1fe121cd); got != want {
		t.Errorf("Hash = %#x, recorded %#x", got, want)
	}
}

// rebuilt returns a memo-free copy of c: the memoized key and hash must
// always equal a from-scratch rebuild's — the invalidation contract of
// the mutation helpers (DESIGN.md §5b).
func rebuilt(c *Config) *Config {
	fresh := &Config{MicroBatch: c.MicroBatch, Stages: make([]Stage, len(c.Stages))}
	for i := range c.Stages {
		s := c.Stages[i]
		fresh.Stages[i] = Stage{Start: s.Start, End: s.End, Devices: s.Devices,
			Ops: append([]OpSetting(nil), s.Ops...)}
	}
	return fresh
}

func TestMutationHelpersInvalidate(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	check := func(what string) {
		t.Helper()
		fresh := rebuilt(c)
		if got, want := c.Hash(), fresh.Hash(); got != want {
			t.Errorf("%s: memoized hash %x != rebuilt hash %x", what, got, want)
		}
		if got, want := c.Key(), fresh.Key(); got != want {
			t.Errorf("%s: memoized key %x != rebuilt key %x", what, got, want)
		}
		for i := range c.Stages {
			if got, want := c.Stages[i].Key(), fresh.Stages[i].Key(); got != want {
				t.Errorf("%s: memoized stage %d key %x != rebuilt %x", what, i, got, want)
			}
		}
	}
	check("fresh")
	c.MutOp(0, 1, func(op *OpSetting) { op.Recompute = true })
	check("MutOp")
	c.MutStage(1, func(s *Stage) {
		for j := range s.Ops {
			s.Ops[j].Recompute = true
		}
	})
	check("MutStage")
	c.SetMicroBatch(8)
	check("SetMicroBatch")

	// Direct mutation after keying goes stale until Invalidate.
	c.Key()
	c.Hash()
	c.Stages[0].Ops[0].Dim = 1
	c.Invalidate()
	check("Invalidate after direct mutation")

	c.Key()
	c.Hash()
	c.Stages[1].Ops[0].Dim = 1
	c.InvalidateStage(1)
	check("InvalidateStage after direct mutation")

	// Clone and CloneIn carry the memos, which stay exact.
	check("Clone")
	d := c.Clone()
	d.MutOp(1, 9, func(op *OpSetting) { op.ZeRO = true })
	var a Arena
	a.Put(d)
	c = d.CloneIn(&a)
	check("CloneIn")
}

// SetMicroBatch must not disturb stage keys: the perfmodel stage cache
// keys the microbatch separately.
func TestStageKeyIgnoresMicroBatch(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	before := c.Stages[0].Key()
	c.SetMicroBatch(8)
	if c.Stages[0].Key() != before {
		t.Error("SetMicroBatch changed a stage key")
	}
	// But a stage mutation must change it.
	c.MutOp(0, 0, func(op *OpSetting) { op.Recompute = true })
	if c.Stages[0].Key() == before {
		t.Error("stage mutation did not change the stage key")
	}
}

// Property: key equality ⇔ hash equality ⇔ canonical equality on
// random mutations of every OpSetting field, the microbatch and the
// stage boundaries (DESIGN.md §6, invariant 7). One side of each pair
// keeps the warm memos a clone carries in the search, the other is
// keyed from scratch. Seeds are drawn from a small space so equal pairs
// occur and the ⇐ direction is exercised; the generator is fixed so
// the count of equal pairs is too.
func TestHashCanonicalEquivalence(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	base := mustBalanced(t, g, 8, 2, 4)
	base.Key()
	base.Hash()
	mutate := func(seed uint32) *Config {
		c := base.Clone()
		for r := seed % 512; r > 0; r /= 7 {
			s := int(r) % len(c.Stages)
			op := c.Stages[s].Start + int(r/2)%2
			switch r % 7 {
			case 0:
				moveBoundary(c, int(r/3)%3-1)
			case 1:
				c.MutOp(s, op, func(o *OpSetting) { o.Recompute = !o.Recompute })
			case 2:
				c.MutOp(s, op, func(o *OpSetting) { o.Dim ^= 1 })
			case 3:
				c.SetMicroBatch(1 << (r % 4))
			case 4:
				c.MutOp(s, op, func(o *OpSetting) { o.ZeRO = !o.ZeRO })
			case 5:
				c.MutOp(s, op, func(o *OpSetting) { o.SeqPar = !o.SeqPar })
			case 6:
				c.MutOp(s, op, func(o *OpSetting) { o.TP, o.DP = o.DP, o.TP })
			}
		}
		return c
	}
	equal := 0
	f := func(s1, s2 uint32) bool {
		a, b := mutate(s1), rebuilt(mutate(s2))
		canon := a.Canonical() == b.Canonical()
		if canon {
			equal++
		}
		return (a.Key() == b.Key()) == canon && (a.Hash() == b.Hash()) == canon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	if equal == 0 {
		t.Error("no equal pair drawn: the ⇐ direction went untested")
	}
}

// moveBoundary shifts the boundary between stages 0 and 1 by d ops
// (d ∈ {-1, 0, 1}), re-slicing both stages' settings.
func moveBoundary(c *Config, d int) {
	s0, s1 := &c.Stages[0], &c.Stages[1]
	b := s0.End + d
	if b <= s0.Start || b >= s1.End {
		return
	}
	ops := append(append([]OpSetting(nil), s0.Ops...), s1.Ops...)
	c.MutStage(0, func(st *Stage) { st.End, st.Ops = b, ops[:b-st.Start:b-st.Start] })
	c.MutStage(1, func(st *Stage) { st.Start, st.Ops = b, ops[b-s0.Start:] })
}

// TestKeyEncodingIsInjective pins the packed-word encoding's escape:
// settings outside the packed ranges, or that would alias a packed
// word if truncated, get distinct keys.
func TestKeyEncodingIsInjective(t *testing.T) {
	settings := []OpSetting{
		{TP: 1, DP: 1},
		{TP: 1 + 1<<24, DP: 1},
		{TP: 1, DP: 1 + 1<<24},
		{TP: 1, DP: 1, Dim: 1 << 12},
		{TP: 1, DP: 1, Dim: -1},
		{TP: 1, DP: 1, Recompute: true},
		{TP: 1, DP: 1, ZeRO: true},
		{TP: 1, DP: 1, SeqPar: true},
		{TP: 2, DP: 1},
		{TP: 1, DP: 2},
		{TP: 1, DP: 1, Dim: 1},
	}
	seen := map[uint64]OpSetting{}
	for _, o := range settings {
		s := Stage{Start: 0, End: 1, Devices: 1, Ops: []OpSetting{o}}
		k := s.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("settings %+v and %+v share key %x", prev, o, k)
		}
		seen[k] = o
	}
}

func TestStageOfAndFirstDev(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 16, 3, 4) // devices 4,4,8
	if c.FirstDev(0) != 0 || c.FirstDev(1) != 4 || c.FirstDev(2) != 8 {
		t.Errorf("FirstDev = %d,%d,%d, want 0,4,8",
			c.FirstDev(0), c.FirstDev(1), c.FirstDev(2))
	}
	if c.StageOf(0) != 0 {
		t.Errorf("StageOf(0) = %d", c.StageOf(0))
	}
	if c.StageOf(15) != 2 {
		t.Errorf("StageOf(15) = %d", c.StageOf(15))
	}
	if c.StageOf(99) != -1 {
		t.Errorf("StageOf(99) = %d, want -1", c.StageOf(99))
	}
}

func TestNumMicrobatches(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	if got := c.NumMicrobatches(g.GlobalBatch); got != 16 {
		t.Errorf("NumMicrobatches = %d, want 16", got)
	}
}

func TestStringCollapsesRuns(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	s := c.String()
	if !strings.Contains(s, "mbs=4") {
		t.Errorf("String() = %q, missing mbs", s)
	}
	if !strings.Contains(s, "stage0") || !strings.Contains(s, "stage1") {
		t.Errorf("String() = %q, missing stages", s)
	}
	// Mixed settings should print per-range.
	c.Stages[0].Ops[0].TP, c.Stages[0].Ops[0].DP = 1, 4
	if !strings.Contains(c.String(), "tp1×dp4") {
		t.Errorf("String() = %q, missing heterogeneous run", c.String())
	}
}

func TestImbalancedInitializers(t *testing.T) {
	g := model.Uniform(32, 1e9, 1e6, 1e5, 64)
	io, err := ImbalancedOps(g, 8, 4, 1)
	if err != nil {
		t.Fatalf("ImbalancedOps: %v", err)
	}
	if err := io.Validate(g, 8); err != nil {
		t.Errorf("ImbalancedOps invalid: %v", err)
	}
	if got := io.Stages[0].NumOps(); got != 16 {
		t.Errorf("ImbalancedOps first stage has %d ops, want 16", got)
	}

	ig, err := ImbalancedGPUs(g, 16, 4, 1)
	if err != nil {
		t.Fatalf("ImbalancedGPUs: %v", err)
	}
	if err := ig.Validate(g, 16); err != nil {
		t.Errorf("ImbalancedGPUs invalid: %v", err)
	}
	if ig.Stages[0].Devices != 8 {
		t.Errorf("ImbalancedGPUs first stage has %d devices, want 8", ig.Stages[0].Devices)
	}
}

func TestRecomputedOps(t *testing.T) {
	g := model.Uniform(16, 1e9, 1e6, 1e5, 64)
	c := mustBalanced(t, g, 8, 2, 4)
	if c.RecomputedOps(0) != 0 {
		t.Error("fresh config has recomputed ops")
	}
	c.Stages[0].Ops[0].Recompute = true
	c.Stages[0].Ops[2].Recompute = true
	if got := c.RecomputedOps(0); got != 2 {
		t.Errorf("RecomputedOps = %d, want 2", got)
	}
}
