package workload

import (
	"math"
	"testing"
)

// OutH returns the output height of the operator.
func (c OpConfig) OutH() int {
	if c.Kind == OpFC {
		return 1
	}
	return (c.H+2*c.Pad-c.KH)/c.Stride + 1
}

// OutW returns the output width of the operator.
func (c OpConfig) OutW() int {
	if c.Kind == OpFC {
		return c.K
	}
	return (c.W+2*c.Pad-c.KW)/c.Stride + 1
}

// OutC returns the output channel count of the operator.
func (c OpConfig) OutC() int {
	switch c.Kind {
	case OpConv:
		return c.K
	case OpPool:
		return c.C
	default:
		return c.K
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(8)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(7).Uint64() == c.Uint64() && i > 0 {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
		if v := r.PM1(); v != 1 && v != -1 {
			t.Fatalf("PM1 = %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(2)
	const n = 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("Norm mean %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("Norm variance %v", variance)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPM1TensorBalanced(t *testing.T) {
	r := NewRNG(3)
	x := PM1Tensor(r, 10, 10, 64)
	var pos int
	for _, v := range x.Data {
		if v != 1 && v != -1 {
			t.Fatalf("non-±1 value %v", v)
		}
		if v == 1 {
			pos++
		}
	}
	frac := float64(pos) / float64(len(x.Data))
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("positive fraction %v far from 0.5", frac)
	}
}

func TestPaperOpsMatchesTableIV(t *testing.T) {
	ops := PaperOps()
	if len(ops) != 8 {
		t.Fatalf("%d ops, Table IV has 8", len(ops))
	}
	// The VGG-16 shapes of Table IV.
	expect := map[string][4]int{ // H, W, C, K
		"conv2.1": {112, 112, 64, 128},
		"conv3.1": {56, 56, 128, 256},
		"conv4.1": {28, 28, 256, 512},
		"conv5.1": {14, 14, 512, 512},
		"pool4":   {28, 28, 512, 0},
		"pool5":   {14, 14, 512, 0},
	}
	for name, want := range expect {
		op, ok := FindOp(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if op.H != want[0] || op.W != want[1] || op.C != want[2] {
			t.Errorf("%s: %dx%dx%d", name, op.H, op.W, op.C)
		}
		if op.Kind == OpConv && op.K != want[3] {
			t.Errorf("%s: K=%d want %d", name, op.K, want[3])
		}
	}
	fc6, _ := FindOp("fc6")
	if fc6.N != 25088 || fc6.K != 4096 {
		t.Errorf("fc6 %d→%d", fc6.N, fc6.K)
	}
	fc7, _ := FindOp("fc7")
	if fc7.N != 4096 || fc7.K != 4096 {
		t.Errorf("fc7 %d→%d", fc7.N, fc7.K)
	}
}

func TestOpConfigOutDims(t *testing.T) {
	conv, _ := FindOp("conv2.1")
	if conv.OutH() != 112 || conv.OutW() != 112 || conv.OutC() != 128 {
		t.Errorf("conv2.1 out %dx%dx%d", conv.OutH(), conv.OutW(), conv.OutC())
	}
	pool, _ := FindOp("pool4")
	if pool.OutH() != 14 || pool.OutW() != 14 || pool.OutC() != 512 {
		t.Errorf("pool4 out %dx%dx%d", pool.OutH(), pool.OutW(), pool.OutC())
	}
	fc, _ := FindOp("fc6")
	if fc.OutH() != 1 || fc.OutW() != 4096 {
		t.Errorf("fc6 out %dx%d", fc.OutH(), fc.OutW())
	}
}

func TestSmallOpsSameKernelTiers(t *testing.T) {
	// The -quick shapes must keep the channel structure so the
	// scheduler picks the same kernels as at paper scale.
	paper := PaperOps()
	small := SmallOps()
	if len(small) != len(paper) {
		t.Fatalf("small %d vs paper %d", len(small), len(paper))
	}
	for i := range small {
		if small[i].Kind != paper[i].Kind {
			t.Errorf("op %d kind mismatch", i)
		}
		if small[i].Kind != OpFC && small[i].C != paper[i].C {
			t.Errorf("%s: C=%d vs paper %d", small[i].Name, small[i].C, paper[i].C)
		}
	}
}

func TestFindOpMissing(t *testing.T) {
	if _, ok := FindOp("conv9.9"); ok {
		t.Error("found nonexistent op")
	}
}

func TestOpKindString(t *testing.T) {
	if OpConv.String() != "conv" || OpFC.String() != "fc" || OpPool.String() != "pool" {
		t.Error("kind names wrong")
	}
	if OpKind(9).String() != "OpKind(9)" {
		t.Error("unknown kind name wrong")
	}
}
