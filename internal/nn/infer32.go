package nn

import (
	"fmt"
	"math"
	"sync"

	"malevade/internal/tensor"
)

// Plan32 is a compiled reduced-precision inference program for one
// Network: the layer stack lowered to a flat list of steps over float32
// copies of the weights, executed with tensor.MatMulF32's vector kernels.
// The float64 Network remains the accuracy reference — a plan is an
// opt-in hot path whose agreement with the reference is pinned by this
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

type stepKind uint8

const (
	stepDenseF32 stepKind = iota
	stepReLU
	stepSigmoid
	stepTanh
)

// step32 is one lowered stage: a float32 dense matmul-plus-bias, or an
// element-wise activation. Dropout layers vanish at compile time
// (inference-mode dropout is the identity).
type step32 struct {
	kind stepKind
	w    *tensor.Matrix32 // stepDenseF32
	b    []float32        // dense bias
	out  int              // output width of this step
}

// CompileF32 lowers the network to a float32 plan. It fails if any layer
// kind has no float32 lowering or any weight is not representable in
// float32 (overflow to ±Inf, or NaN in the source).
func (n *Network) CompileF32() (*Plan32, error) {
	p := &Plan32{inDim: n.inDim, outDim: n.outDim}
	width := n.inDim
	for i, l := range n.layers {
		switch l := l.(type) {
		case *Dense:
			w32 := tensor.ToFloat32(l.W.Value)
			if w32.HasNaN() {
				return nil, fmt.Errorf("nn: layer %d: weights not representable in float32", i)
			}
			b32 := make([]float32, l.out)
			for j, v := range l.B.Value.Row(0) {
				b32[j] = float32(v)
				if math.IsNaN(float64(b32[j])) || math.IsInf(float64(b32[j]), 0) {
					return nil, fmt.Errorf("nn: layer %d: bias not representable in float32", i)
				}
			}
			p.steps = append(p.steps, step32{kind: stepDenseF32, w: w32, b: b32, out: l.out})
			width = l.out
		case *ReLU:
			p.steps = append(p.steps, step32{kind: stepReLU, out: width})
		case *Sigmoid:
			p.steps = append(p.steps, step32{kind: stepSigmoid, out: width})
		case *Tanh:
			p.steps = append(p.steps, step32{kind: stepTanh, out: width})
		case *Dropout:
			// Identity at inference: no step at all (the float64 path's
			// copy is an artifact of its buffer discipline, not semantics).
		default:
			return nil, fmt.Errorf("nn: layer %d (%T) has no float32 lowering", i, l)
		}
	}
	return p, nil
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
		switch st.kind {
		case stepDenseF32:
			tensor.MatMulF32(dst, h, st.w)
			tensor.AddRowVector32(dst, st.b)
		case stepReLU:
			for j, v := range h.Data {
				if v > 0 {
					dst.Data[j] = v
				} else {
					dst.Data[j] = 0
				}
			}
		case stepSigmoid:
			for j, v := range h.Data {
				dst.Data[j] = float32(sigmoid(float64(v)))
			}
		case stepTanh:
			for j, v := range h.Data {
				dst.Data[j] = float32(tanh(float64(v)))
			}
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
