package checkpoint

import (
	"strings"
	"testing"

	"repro/internal/nn"
)

// rawLayer is one layer as EncodeMLP writes it, free of the invariants an
// nn.MLP keeps, so each of DecodeMLP's validation branches can be reached.
type rawLayer struct {
	in, out int
	act     nn.Activation
	w, b    []float32
}

func encodeRawMLP(layers []rawLayer) []byte {
	e := NewEncoder()
	e.U32(uint32(len(layers)))
	for _, l := range layers {
		e.Int(l.in)
		e.Int(l.out)
		e.U8(uint8(l.act))
		e.Floats32(l.w)
		e.Floats32(l.b)
	}
	return e.Bytes()
}

func TestDecodeMLPRejectsMalformed(t *testing.T) {
	ok := rawLayer{in: 2, out: 3, act: nn.Tanh, w: make([]float32, 6), b: make([]float32, 3)}

	cases := []struct {
		name    string
		layers  []rawLayer
		wantSub string
	}{
		{"empty network", nil, "empty network"},
		{"zero input width", []rawLayer{{in: 0, out: 3, b: make([]float32, 3)}}, "malformed"},
		{"negative output width", []rawLayer{{in: 2, out: -1}}, "malformed"},
		{"weight count mismatch", []rawLayer{{in: 2, out: 3, w: make([]float32, 5), b: make([]float32, 3)}}, "5 weights"},
		{"bias count mismatch", []rawLayer{{in: 2, out: 3, w: make([]float32, 6), b: make([]float32, 2)}}, "2 biases"},
		// The wire holds the code as a byte: -1 arrives as 255.
		{"activation below range", []rawLayer{{in: 2, out: 3, act: -1, w: make([]float32, 6), b: make([]float32, 3)}}, "unknown activation"},
		{"activation above range", []rawLayer{{in: 2, out: 3, act: nn.Tanh + 1, w: make([]float32, 6), b: make([]float32, 3)}}, "unknown activation"},
		{"layers do not chain", []rawLayer{ok, {in: 4, out: 1, w: make([]float32, 4), b: make([]float32, 1)}}, "does not chain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := DecodeMLP(NewDecoder(encodeRawMLP(tc.layers)))
			if err == nil {
				t.Fatal("malformed network decoded without error")
			}
			if m != nil {
				t.Error("DecodeMLP returned a network alongside an error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}
