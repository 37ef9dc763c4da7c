// Package nn implements the feed-forward neural-network engine behind both
// the target malware detector (4-layer FC DNN) and the Table IV substitute
// model (491-1200-1500-1300-2): dense layers, ReLU/Sigmoid/Tanh activations,
// dropout, temperature softmax, hard- and soft-label cross-entropy, SGD and
// Adam optimizers, a minibatch trainer, and — critically for the JSMA attack
// — gradients of class probabilities with respect to the *input*.
//
// The engine is CPU-only, float64, deterministic under a fixed seed, and
// stdlib-only. It is sized for the paper's workload (hundreds of thousands
// of 491-dimensional samples), not for general deep learning.
//
// State is split into shared weights and per-caller scratch: layers hold
// only their parameters, and every pass keeps its activations in a
// Workspace. Inference (Network.Infer with an explicit Workspace, or the
// pooled Logits/Probs/PredictClass) and input gradients (ClassGradient)
// are therefore safe for any number of concurrent callers on one network;
// only training, through the network's own Forward/Backward workspace,
// stays single-caller. See the Network doc for the full contract.
package nn

import (
	"fmt"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// Param is one trainable parameter tensor with its gradient accumulator.
// Optimizers mutate Value in place; Backward accumulates into Grad. A
// loaded network's Grad is nil until a training pass first accumulates
// into it: inference and input gradients never need it.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// Layer is one differentiable stage of a network. A layer holds only its
// parameters: the input and output of a pass live in the caller's
// Workspace and are handed to both methods, so any number of goroutines
// may run one shared layer, each with its own buffers, as long as nobody
// is mutating the parameters.
type Layer interface {
	// InferInto writes the layer's output for x into dst (pre-sized to
	// x.Rows × OutDim by the caller). Dropout is the identity here; the
	// network applies its training mask.
	InferInto(dst, x *tensor.Matrix)
	// Backward writes dLoss/dx into dx given dLoss/dy, for the pass that
	// read x and wrote y. With params set it also accumulates the
	// parameter gradients into each Param's Grad; without it, it only
	// reads the parameters.
	Backward(dx, dy, x, y *tensor.Matrix, params bool)
	// Params returns the layer's trainable parameters (nil if none).
	Params() []*Param
	// OutDim returns the width of the layer's output given its input
	// width, used for shape validation when stacking layers.
	OutDim(inDim int) (int, error)
}

// Dense is a fully connected layer: y = xW + b, with W shaped in×out.
type Dense struct {
	W *Param
	B *Param

	in, out int
}

var _ Layer = (*Dense)(nil)

// NewDense builds a dense layer with He-normal initialized weights (the
// right scaling for the ReLU stacks this repository trains) and zero biases.
func NewDense(in, out int, r *rng.RNG) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: NewDense invalid shape %dx%d", in, out))
	}
	w := tensor.New(in, out)
	std := heStd(in)
	for i := range w.Data {
		w.Data[i] = r.Normal(0, std)
	}
	return &Dense{
		W:   &Param{Name: "W", Value: w, Grad: tensor.New(in, out)},
		B:   &Param{Name: "b", Value: tensor.New(1, out), Grad: tensor.New(1, out)},
		in:  in,
		out: out,
	}
}

func heStd(fanIn int) float64 {
	// sqrt(2/fanIn); via exp/log-free arithmetic to keep imports minimal.
	return sqrt(2 / float64(fanIn))
}

// InferInto computes y = xW + b into dst.
func (d *Dense) InferInto(dst, x *tensor.Matrix) {
	if x.Cols != d.in {
		panic(fmt.Sprintf("nn: Dense input width %d, want %d", x.Cols, d.in))
	}
	tensor.MatMul(dst, x, d.W.Value)
	tensor.AddRowVector(dst, d.B.Value.Row(0))
}

// Backward writes dx = dy Wᵀ and, with params set, accumulates dW += xᵀdy
// and db += Σ_rows dy. Parameter gradients accumulate so gradient checks
// can sum batches; the optimizer zeroes them after each step.
func (d *Dense) Backward(dx, dy, x, _ *tensor.Matrix, params bool) {
	if params {
		if d.W.Grad == nil {
			d.W.Grad, d.B.Grad = tensor.New(d.in, d.out), tensor.New(1, d.out)
		}
		tensor.MatMulAT(d.W.Grad, x, dy)
		for i := 0; i < dy.Rows; i++ {
			for j, v := range dy.Row(i) {
				d.B.Grad.Data[j] += v
			}
		}
	}
	tensor.MatMulBT(dx, dy, d.W.Value)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutDim validates the input width and returns the output width.
func (d *Dense) OutDim(inDim int) (int, error) {
	if inDim != d.in {
		return 0, fmt.Errorf("nn: dense layer expects width %d, got %d", d.in, inDim)
	}
	return d.out, nil
}

// InDim returns the layer's expected input width.
func (d *Dense) InDim() int { return d.in }

// ReLU is the rectified linear activation.
type ReLU struct{}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// InferInto computes max(0, x) into dst.
func (l *ReLU) InferInto(dst, x *tensor.Matrix) {
	for i, v := range x.Data {
		if v > 0 {
			dst.Data[i] = v
		} else {
			dst.Data[i] = 0
		}
	}
}

// Backward zeroes the gradient where the input was non-positive.
func (l *ReLU) Backward(dx, dy, x, _ *tensor.Matrix, _ bool) {
	for i, g := range dy.Data {
		if x.Data[i] > 0 {
			dx.Data[i] = g
		} else {
			dx.Data[i] = 0
		}
	}
}

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (l *ReLU) OutDim(inDim int) (int, error) { return inDim, nil }

// Sigmoid is the logistic activation 1/(1+e^-x).
type Sigmoid struct{}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// InferInto computes the element-wise logistic function into dst.
func (l *Sigmoid) InferInto(dst, x *tensor.Matrix) {
	for i, v := range x.Data {
		dst.Data[i] = sigmoid(v)
	}
}

// Backward multiplies by s(1-s), reading s from the output.
func (l *Sigmoid) Backward(dx, dy, _, y *tensor.Matrix, _ bool) {
	for i, g := range dy.Data {
		s := y.Data[i]
		dx.Data[i] = g * s * (1 - s)
	}
}

// Params returns nil; Sigmoid has no parameters.
func (l *Sigmoid) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (l *Sigmoid) OutDim(inDim int) (int, error) { return inDim, nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

var _ Layer = (*Tanh)(nil)

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// InferInto computes element-wise tanh into dst.
func (l *Tanh) InferInto(dst, x *tensor.Matrix) {
	for i, v := range x.Data {
		dst.Data[i] = tanh(v)
	}
}

// Backward multiplies by 1 - tanh², reading tanh from the output.
func (l *Tanh) Backward(dx, dy, _, y *tensor.Matrix, _ bool) {
	for i, g := range dy.Data {
		th := y.Data[i]
		dx.Data[i] = g * (1 - th*th)
	}
}

// Params returns nil; Tanh has no parameters.
func (l *Tanh) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (l *Tanh) OutDim(inDim int) (int, error) { return inDim, nil }

// Dropout zeroes a fraction of activations during training and rescales the
// survivors by 1/(1-rate) (inverted dropout), so inference needs no change.
// As a Layer it is the identity in both directions; a training pass masks
// its output with drop and its gradient with the same mask, which the
// pass's Workspace keeps.
type Dropout struct {
	Rate float64

	rng *rng.RNG
}

var _ Layer = (*Dropout)(nil)

// NewDropout builds a dropout layer. rate must be in [0, 1).
func NewDropout(rate float64, r *rng.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: r}
}

// InferInto copies x into dst: inverted dropout needs no inference-time
// rescaling.
func (l *Dropout) InferInto(dst, x *tensor.Matrix) {
	copy(dst.Data, x.Data)
}

// Backward copies dy into dx (the identity's gradient).
func (l *Dropout) Backward(dx, dy, _, _ *tensor.Matrix, _ bool) {
	copy(dx.Data, dy.Data)
}

// drop draws a fresh training mask from the layer's RNG into mask (reused
// when its length fits) and applies it to y in place, returning the mask.
func (l *Dropout) drop(y *tensor.Matrix, mask []float64) []float64 {
	if len(mask) != len(y.Data) {
		mask = make([]float64, len(y.Data))
	}
	keep := 1 - l.Rate
	scale := 1 / keep
	for i := range y.Data {
		if l.rng.Float64() < keep {
			mask[i] = scale
			y.Data[i] *= scale
		} else {
			mask[i] = 0
			y.Data[i] = 0
		}
	}
	return mask
}

// Params returns nil; Dropout has no parameters.
func (l *Dropout) Params() []*Param { return nil }

// OutDim returns inDim unchanged.
func (l *Dropout) OutDim(inDim int) (int, error) { return inDim, nil }
