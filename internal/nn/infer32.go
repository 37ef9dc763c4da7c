package nn

import (
	"fmt"
	"math"
	"sync"

	"malevade/internal/tensor"
)

// Plan32 is a compiled reduced-precision inference program for one
// Network: float32 copies of the weights, lowered to one step per dense
// layer with the activation after it folded in, and executed with
// tensor.MatMulF32's vector kernels. Dropout, the identity at inference,
// does not block the fold; an activation with nothing to fold into (one
// that starts the stack or follows another activation) is a step of its
// own over a copy of its input. Per output element a dense step runs the
// kernel's product, one rounded float32 bias add and then the activation,
// and the kernel applies the last two to each row shard as soon as the
// shard is written; the result is bit-identical to running the three
// unfused (docs/ARCHITECTURE.md, "The float32 plan contract"). The
// float64 Network remains the accuracy reference — a plan is an opt-in
// hot path whose agreement with the reference is pinned by this
// package's parity tests, not a replacement for it. Training, gradients,
// and serialization stay float64-only.
//
// A Plan32 snapshots the weights at compile time: later mutation of the
// source network (training) is not reflected. Like Network, a compiled
// plan is safe for any number of concurrent Logits callers.
type Plan32 struct {
	inDim  int
	outDim int
	steps  []step32
	wsPool sync.Pool
}

// step32 is one lowered stage: a float32 dense layer (w and b) and the
// activation folded after it, or, with w nil, an activation alone.
type step32 struct {
	w   *tensor.Matrix32
	b   []float32
	act act32
	out int // output width of this step
	// epilogue is finish bound to this step once at compile time, so
	// Infer hands it to the kernel without allocating.
	epilogue func(x []float32)
}

// act32 names the activation a step applies after its bias add.
type act32 uint8

const (
	actNone act32 = iota
	actReLU
	actSigmoid
	actTanh
)

// CompileF32 lowers the network to a float32 plan. It fails if any layer
// kind has no float32 lowering or any weight is not representable in
// float32 (overflow to ±Inf, or NaN in the source).
func (n *Network) CompileF32() (*Plan32, error) {
	p := &Plan32{inDim: n.inDim, outDim: n.outDim}
	width := n.inDim
	for i, l := range n.layers {
		var act act32
		switch l := l.(type) {
		case *Dense:
			w32 := tensor.ToFloat32(l.W.Value)
			if tensor.FirstNonFinite32(w32.Data) >= 0 {
				return nil, fmt.Errorf("nn: layer %d: weights not representable in float32", i)
			}
			b32 := tensor.ToFloat32(l.B.Value).Data
			if tensor.FirstNonFinite32(b32) >= 0 {
				return nil, fmt.Errorf("nn: layer %d: bias not representable in float32", i)
			}
			p.steps = append(p.steps, step32{w: w32, b: b32, out: l.out})
			width = l.out
			continue
		case *ReLU:
			act = actReLU
		case *Sigmoid:
			act = actSigmoid
		case *Tanh:
			act = actTanh
		case *Dropout:
			// Identity at inference: no step at all (the float64 path's
			// copy is an artifact of its buffer discipline, not semantics).
			continue
		default:
			return nil, fmt.Errorf("nn: layer %d (%T) has no float32 lowering", i, l)
		}
		if last := len(p.steps) - 1; last >= 0 && p.steps[last].w != nil && p.steps[last].act == actNone {
			p.steps[last].act = act
		} else {
			p.steps = append(p.steps, step32{act: act, out: width})
		}
	}
	for i := range p.steps {
		p.steps[i].epilogue = p.steps[i].finish
	}
	return p, nil
}

// finish runs the step's work after its product, in place over whole
// rows x: add the bias to every row (one float32 rounding per element),
// then apply the activation. The hot case, a bias add then ReLU, is one
// pass.
func (st *step32) finish(x []float32) {
	if st.b != nil && st.act == actReLU {
		for r := x; len(r) > 0; r = r[len(st.b):] {
			row := r[:len(st.b)]
			for j, v := range st.b {
				row[j] = relu32(row[j] + v)
			}
		}
		return
	}
	if st.b != nil {
		for r := x; len(r) > 0; r = r[len(st.b):] {
			row := r[:len(st.b)]
			for j, v := range st.b {
				row[j] += v
			}
		}
	}
	switch st.act {
	case actReLU:
		for j, v := range x {
			x[j] = relu32(v)
		}
	case actSigmoid:
		for j, v := range x {
			x[j] = float32(sigmoid(float64(v)))
		}
	case actTanh:
		for j, v := range x {
			x[j] = float32(tanh(float64(v)))
		}
	}
}

// relu32 returns the ReLU branch's exact result, v > 0 ? v : +0, without
// a branch: v is greater than zero (and not NaN) exactly when its bits
// minus one, as unsigned, fall below +Inf's bits, so +Inf stays and ±0,
// negatives and NaNs of either sign all become +0.
func relu32(v float32) float32 {
	u := math.Float32bits(v)
	keep := uint32((int64(u-1) - 0x7f800000) >> 63) // all ones when u-1 < 0x7f800000
	return math.Float32frombits(u & keep)
}

// PrecisionF32 names the float32 plan; the float64 reference path is
// selected by its absence.
const PrecisionF32 = "float32"

// InDim returns the expected input width.
func (p *Plan32) InDim() int { return p.inDim }

// OutDim returns the logits width.
func (p *Plan32) OutDim() int { return p.outDim }

// Workspace32 holds one concurrent reader's scratch for plan execution:
// per-step activation buffers. Single-caller, like nn.Workspace.
type Workspace32 struct {
	bufs []*tensor.Matrix32
}

// NewWorkspace returns an empty workspace for this plan.
func (p *Plan32) NewWorkspace() *Workspace32 {
	return &Workspace32{bufs: make([]*tensor.Matrix32, len(p.steps))}
}

// Infer executes the plan over a batch, drawing scratch from ws. The
// returned logits matrix is owned by ws and stays valid until the next
// Infer with the same workspace. Any number of goroutines may Infer
// against one shared plan, each with its own workspace.
func (p *Plan32) Infer(ws *Workspace32, x *tensor.Matrix32) *tensor.Matrix32 {
	if x.Cols != p.inDim {
		panic(fmt.Sprintf("nn: Plan32 input width %d, want %d", x.Cols, p.inDim))
	}
	if len(ws.bufs) != len(p.steps) {
		ws.bufs = make([]*tensor.Matrix32, len(p.steps))
	}
	h := x
	for i := range p.steps {
		st := &p.steps[i]
		dst := ws.bufs[i]
		if dst == nil || dst.Rows != x.Rows || dst.Cols != st.out {
			dst = tensor.New32(x.Rows, st.out)
			ws.bufs[i] = dst
		}
		if st.w != nil {
			tensor.MatMulF32(dst, h, st.w, st.epilogue)
		} else {
			copy(dst.Data, h.Data)
			st.epilogue(dst.Data)
		}
		h = dst
	}
	return h
}

func (p *Plan32) getWorkspace() *Workspace32 {
	if ws, ok := p.wsPool.Get().(*Workspace32); ok {
		return ws
	}
	return p.NewWorkspace()
}

// Logits scores a batch and returns a freshly allocated float32 logits
// matrix. Safe for any number of concurrent callers (shared weights,
// pooled per-call workspaces).
func (p *Plan32) Logits(x *tensor.Matrix32) *tensor.Matrix32 {
	ws := p.getWorkspace()
	out := p.Infer(ws, x).Clone()
	p.wsPool.Put(ws)
	return out
}
