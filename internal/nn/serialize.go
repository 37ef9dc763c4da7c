package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// Model (de)serialization. A Network is flattened to a Spec — a plain data
// description of the layer stack plus weights — and encoded with gob.

// LayerSpec describes one layer in serialized form.
type LayerSpec struct {
	// Type is one of "dense", "relu", "sigmoid", "tanh", "dropout".
	Type string
	// In and Out are the dense layer shape (dense only).
	In, Out int
	// W is the row-major in×out weight block and B the out-wide bias
	// (dense only).
	W, B []float64
	// Rate is the dropout rate (dropout only).
	Rate float64
	// Seed reseeds the dropout mask stream on load (dropout only).
	Seed uint64
}

// Spec is the serializable form of a Network.
type Spec struct {
	// Format identifies the encoding and must equal SpecFormat.
	Format string
	InDim  int
	Layers []LayerSpec
}

// SpecFormat tags the serialization format for forward compatibility.
const SpecFormat = "malevade-nn-v1"

// Spec flattens the network to a serializable description. Weights are
// copied, so mutating the Spec does not affect the live network.
func (n *Network) Spec() *Spec {
	s := &Spec{Format: SpecFormat, InDim: n.inDim}
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Dense:
			w := make([]float64, len(t.W.Value.Data))
			copy(w, t.W.Value.Data)
			b := make([]float64, len(t.B.Value.Data))
			copy(b, t.B.Value.Data)
			s.Layers = append(s.Layers, LayerSpec{Type: "dense", In: t.in, Out: t.out, W: w, B: b})
		case *ReLU:
			s.Layers = append(s.Layers, LayerSpec{Type: "relu"})
		case *Sigmoid:
			s.Layers = append(s.Layers, LayerSpec{Type: "sigmoid"})
		case *Tanh:
			s.Layers = append(s.Layers, LayerSpec{Type: "tanh"})
		case *Dropout:
			s.Layers = append(s.Layers, LayerSpec{Type: "dropout", Rate: t.Rate})
		default:
			panic(fmt.Sprintf("nn: Spec: unknown layer type %T", l))
		}
	}
	return s
}

// FromSpec reconstructs a Network from its serialized description in one
// pass. It takes ownership of the spec's weight slices: each dense layer
// uses its W and B as its parameters, with no copy, so the caller must not
// modify or reuse them afterwards. Parameter gradients are allocated only
// when a training pass first accumulates into them.
func FromSpec(s *Spec) (*Network, error) {
	if s.Format != SpecFormat {
		return nil, fmt.Errorf("nn: unsupported spec format %q (want %q)", s.Format, SpecFormat)
	}
	var layers []Layer
	for i, ls := range s.Layers {
		switch ls.Type {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return nil, fmt.Errorf("nn: layer %d: invalid dense shape %dx%d", i, ls.In, ls.Out)
			}
			if len(ls.W) != ls.In*ls.Out || len(ls.B) != ls.Out {
				return nil, fmt.Errorf("nn: layer %d: weight block %d / bias %d inconsistent with %dx%d",
					i, len(ls.W), len(ls.B), ls.In, ls.Out)
			}
			layers = append(layers, &Dense{
				W:   &Param{Name: "W", Value: tensor.FromSlice(ls.In, ls.Out, ls.W)},
				B:   &Param{Name: "b", Value: tensor.FromSlice(1, ls.Out, ls.B)},
				in:  ls.In,
				out: ls.Out,
			})
		case "relu":
			layers = append(layers, NewReLU())
		case "sigmoid":
			layers = append(layers, NewSigmoid())
		case "tanh":
			layers = append(layers, NewTanh())
		case "dropout":
			layers = append(layers, NewDropout(ls.Rate, rng.New(ls.Seed)))
		default:
			return nil, fmt.Errorf("nn: layer %d: unknown type %q", i, ls.Type)
		}
	}
	net, err := NewNetwork(s.InDim, layers...)
	if err != nil {
		return nil, fmt.Errorf("nn: FromSpec: %w", err)
	}
	return net, nil
}

// Save writes the network to w in gob-encoded Spec form.
func (n *Network) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(n.Spec()); err != nil {
		return fmt.Errorf("nn: encode model: %w", err)
	}
	return nil
}

// Load reads a gob-encoded Spec and reconstructs the network.
func Load(r io.Reader) (*Network, error) {
	var s Spec
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: decode model: %w", err)
	}
	return FromSpec(&s)
}

// SaveFile saves the network to the named file, creating or truncating it.
func (n *Network) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("nn: close %s: %w", path, cerr)
		}
	}()
	return n.Save(f)
}

// LoadFile loads a network saved with SaveFile.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: open %s: %w", path, err)
	}
	defer f.Close()
	return Load(f)
}
