package nn

import (
	"fmt"
	"sync"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// Network is an ordered stack of layers ending in logits. Classification
// probabilities are obtained with Probs (temperature softmax applied outside
// the layer stack, which is what defensive distillation requires).
//
// Concurrency model: the layers hold only their weights, and every pass
// keeps its activations in a Workspace. Inference (Infer with an explicit
// Workspace, Logits, Probs, PredictClass) and input gradients
// (ClassGradient) draw their workspaces per call, so any number of
// goroutines may use one shared network at once, provided nobody is
// mutating the parameters (training) at the same time. Only the train-time
// pair Forward/Backward is single-caller: it records its pass in the
// network's own workspace.
type Network struct {
	layers []Layer
	inDim  int
	outDim int
	// widths[0] is the input width and widths[i+1] the output width of
	// layers[i], fixed at construction.
	widths []int
	// train is the workspace of the train-time Forward/Backward pair.
	train *Workspace
	// pool recycles workspaces for the per-call entry points. It is
	// allocated apart from the Network, and its workspaces never point
	// back at it: the runtime keeps a used pool registered for two more
	// garbage collections, and that must not keep a dropped network alive.
	pool *sync.Pool
}

// NewNetwork stacks the given layers. inDim is the expected input width;
// the constructor validates that consecutive layer shapes agree.
func NewNetwork(inDim int, layers ...Layer) (*Network, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("nn: non-positive input width %d", inDim)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: network needs at least one layer")
	}
	widths := []int{inDim}
	for i, l := range layers {
		next, err := l.OutDim(widths[i])
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		widths = append(widths, next)
	}
	return &Network{layers: layers, inDim: inDim, outDim: widths[len(layers)], widths: widths,
		pool: new(sync.Pool)}, nil
}

// MLPConfig describes a plain multi-layer perceptron: Dims lists every layer
// width from input to logits (e.g. Table IV's substitute is
// [491, 1200, 1500, 1300, 2]); a hidden activation is inserted between all
// consecutive dense layers, and optional dropout after each hidden
// activation.
type MLPConfig struct {
	// Dims holds the layer widths, input first, logits last. Must have at
	// least two entries.
	Dims []int
	// Activation selects the hidden non-linearity: "relu" (default),
	// "sigmoid", or "tanh".
	Activation string
	// DropoutRate, when > 0, adds inverted dropout after every hidden
	// activation.
	DropoutRate float64
	// Seed drives weight initialization (and dropout masks).
	Seed uint64
}

// NewMLP builds a fully connected network per cfg.
func NewMLP(cfg MLPConfig) (*Network, error) {
	if len(cfg.Dims) < 2 {
		return nil, fmt.Errorf("nn: MLP needs >= 2 dims, got %d", len(cfg.Dims))
	}
	for i, d := range cfg.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("nn: MLP dim %d is %d, must be positive", i, d)
		}
	}
	r := rng.New(cfg.Seed)
	var layers []Layer
	for i := 0; i+1 < len(cfg.Dims); i++ {
		layers = append(layers, NewDense(cfg.Dims[i], cfg.Dims[i+1], r))
		isHidden := i+2 < len(cfg.Dims)
		if !isHidden {
			break
		}
		act, err := newActivation(cfg.Activation)
		if err != nil {
			return nil, err
		}
		layers = append(layers, act)
		if cfg.DropoutRate > 0 {
			layers = append(layers, NewDropout(cfg.DropoutRate, r.Split()))
		}
	}
	return NewNetwork(cfg.Dims[0], layers...)
}

func newActivation(name string) (Layer, error) {
	switch name {
	case "", "relu":
		return NewReLU(), nil
	case "sigmoid":
		return NewSigmoid(), nil
	case "tanh":
		return NewTanh(), nil
	default:
		return nil, fmt.Errorf("nn: unknown activation %q", name)
	}
}

// InDim returns the expected input width.
func (n *Network) InDim() int { return n.inDim }

// OutDim returns the logits width (number of classes).
func (n *Network) OutDim() int { return n.outDim }

// Layers exposes the layer stack (read-only by convention).
func (n *Network) Layers() []Layer { return n.layers }

// Workspace holds one caller's activations for a network: the input and
// every layer's output of the last forward pass, and the buffers a
// backward pass writes. A Workspace is single-caller — give each goroutine
// its own (NewWorkspace), or use the per-call entry points, which borrow
// one from the network's pool.
type Workspace struct {
	// acts[0] is the pass's input and acts[i+1] the output of layer i.
	acts []*tensor.Matrix
	// grads[i] is dLoss/d(acts[i]) on the last backward pass; the last
	// one holds ClassGradient's dF/dlogits seed.
	grads []*tensor.Matrix
	// masks[i] is dropout layer i's mask from the last forward pass, nil
	// unless that was a training pass.
	masks [][]float64
}

// NewWorkspace returns an empty workspace for this network; buffers are
// allocated on first use and resized when the batch shape changes.
func (n *Network) NewWorkspace() *Workspace {
	return &Workspace{
		acts:  make([]*tensor.Matrix, len(n.widths)),
		grads: make([]*tensor.Matrix, len(n.widths)),
		masks: make([][]float64, len(n.layers)),
	}
}

// sized returns m when it already has the given shape, else a new matrix.
func sized(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || m.Rows != rows || m.Cols != cols {
		return tensor.New(rows, cols)
	}
	return m
}

// forward runs x through the stack into ws and returns the logits (owned
// by ws). A training pass masks every dropout layer's output, keeping the
// masks in ws for the backward pass.
func (n *Network) forward(ws *Workspace, x *tensor.Matrix, training bool) *tensor.Matrix {
	if x.Cols != n.inDim {
		panic(fmt.Sprintf("nn: forward input width %d, want %d", x.Cols, n.inDim))
	}
	if len(ws.acts) != len(n.widths) {
		*ws = *n.NewWorkspace()
	}
	ws.acts[0] = x
	for i, l := range n.layers {
		y := sized(ws.acts[i+1], x.Rows, n.widths[i+1])
		ws.acts[i+1] = y
		l.InferInto(y, ws.acts[i])
		var mask []float64
		if d, ok := l.(*Dropout); ok && training && d.Rate > 0 {
			mask = d.drop(y, ws.masks[i])
		}
		ws.masks[i] = mask
	}
	return ws.acts[len(n.layers)]
}

// backward propagates dy = dLoss/dLogits back through the pass recorded in
// ws and returns dLoss/dInput (owned by ws). With params set every layer
// also accumulates its parameter gradients.
func (n *Network) backward(ws *Workspace, dy *tensor.Matrix, params bool) *tensor.Matrix {
	rows := ws.acts[0].Rows
	if dy.Rows != rows || dy.Cols != n.outDim {
		panic(fmt.Sprintf("nn: backward grad %dx%d, want %dx%d", dy.Rows, dy.Cols, rows, n.outDim))
	}
	for i := len(n.layers) - 1; i >= 0; i-- {
		dx := sized(ws.grads[i], rows, n.widths[i])
		ws.grads[i] = dx
		n.layers[i].Backward(dx, dy, ws.acts[i], ws.acts[i+1], params)
		for k, m := range ws.masks[i] {
			dx.Data[k] *= m
		}
		dy = dx
	}
	return dy
}

// Forward runs the batch through the stack and returns logits. training
// selects dropout masking. The pass is recorded in the network's own
// workspace for Backward, and the returned matrix is owned by it: callers
// that retain it across calls must Clone it. Forward/Backward is the
// single-caller training path; concurrent callers use Infer, the pooled
// entry points or ClassGradient.
func (n *Network) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	if n.train == nil {
		n.train = n.NewWorkspace()
	}
	return n.forward(n.train, x, training)
}

// Backward propagates dLoss/dLogits through the pass of the last Forward,
// accumulating parameter gradients, and returns dLoss/dInput (owned by the
// network's workspace).
func (n *Network) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if n.train == nil || n.train.acts[0] == nil {
		panic("nn: Backward before Forward")
	}
	return n.backward(n.train, grad, true)
}

// Infer runs the batch through the stack in inference mode, drawing every
// activation buffer from ws. It only reads the weights, so any number of
// goroutines may Infer against one shared network — each with its own
// Workspace — as long as no goroutine is concurrently training. The
// returned logits matrix is owned by ws and stays valid until the next
// pass with the same workspace. Results are bit-identical to
// Forward(x, false), which runs the same per-layer code: each output row
// depends only on its own input row, so batching and scheduling cannot
// change the numbers.
func (n *Network) Infer(ws *Workspace, x *tensor.Matrix) *tensor.Matrix {
	return n.forward(ws, x, false)
}

func (n *Network) getWorkspace() *Workspace {
	if ws, ok := n.pool.Get().(*Workspace); ok {
		return ws
	}
	return n.NewWorkspace()
}

func (n *Network) putWorkspace(ws *Workspace) {
	ws.acts[0] = nil // do not keep the caller's input alive in the pool
	n.pool.Put(ws)
}

// Logits scores a batch in inference mode and returns a freshly allocated
// logits matrix. Safe for any number of concurrent callers (shared weights,
// pooled per-call workspaces).
func (n *Network) Logits(x *tensor.Matrix) *tensor.Matrix {
	ws := n.getWorkspace()
	out := n.Infer(ws, x).Clone()
	n.putWorkspace(ws)
	return out
}

// Params returns every trainable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total scalar parameter count (Table IV reporting).
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value.Data)
	}
	return total
}

// Probs returns softmax(logits/temperature) for a batch; rows sum to 1.
// Safe for concurrent callers.
func (n *Network) Probs(x *tensor.Matrix, temperature float64) *tensor.Matrix {
	ws := n.getWorkspace()
	logits := n.Infer(ws, x)
	out := tensor.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		SoftmaxRow(logits.Row(i), out.Row(i), temperature)
	}
	n.putWorkspace(ws)
	return out
}

// PredictClass returns the argmax class per row. Safe for concurrent
// callers.
func (n *Network) PredictClass(x *tensor.Matrix) []int {
	ws := n.getWorkspace()
	logits := n.Infer(ws, x)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = logits.RowArgmax(i)
	}
	n.putWorkspace(ws)
	return out
}

// ClassGradient computes, for every sample in the batch, the gradient of the
// softmax probability of `class` with respect to the input:
// ∂F_class(x)/∂x. This is the forward derivative the JSMA saliency map is
// built from (Eq. 1 of the paper). It runs the same per-layer forward and
// backward as training on a pooled workspace and reads the parameters
// only, so any number of goroutines may call it on one shared network.
// Each output row depends only on its own input row: a batch's gradient
// equals each row's own, bit for bit.
//
// It also returns the logits of the forward pass the gradient was taken
// at, bit-identical to Logits(x), so an iterative attack can judge the
// current batch and step it from one pass. Both matrices are freshly
// allocated: grad has the batch's shape (rows = samples, cols = input
// width) and logits is rows × OutDim.
func (n *Network) ClassGradient(x *tensor.Matrix, class int, temperature float64) (grad, logits *tensor.Matrix) {
	if class < 0 || class >= n.outDim {
		panic(fmt.Sprintf("nn: ClassGradient class %d out of [0,%d)", class, n.outDim))
	}
	ws := n.getWorkspace()
	logits = n.forward(ws, x, false)
	// dF_c/dz_j = p_c (δ_cj − p_j) / T for softmax with temperature T.
	seed := sized(ws.grads[len(n.layers)], logits.Rows, logits.Cols)
	ws.grads[len(n.layers)] = seed
	for i := 0; i < logits.Rows; i++ {
		row := seed.Row(i)
		SoftmaxRow(logits.Row(i), row, temperature)
		pc := row[class]
		for j, p := range row {
			delta := 0.0
			if j == class {
				delta = 1
			}
			row[j] = pc * (delta - p) / temperature
		}
	}
	grad = n.backward(ws, seed, false).Clone()
	logits = logits.Clone() // the workspace goes back to the pool
	n.putWorkspace(ws)
	return grad, logits
}
