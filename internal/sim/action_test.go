package sim

import (
	"fmt"
	"math"
	"testing"
)

// fmtAction is the fmt-based rendering Action.Append replaced; the decision
// digests hash this text, so Append must reproduce it byte for byte.
func fmtAction(a Action) string {
	switch a.Kind {
	case Stay:
		return "stay"
	case Move:
		return fmt.Sprintf("move(%d)", a.Arg)
	case Charge:
		return fmt.Sprintf("charge(%d)", a.Arg)
	default:
		return fmt.Sprintf("Action(%d,%d)", int(a.Kind), a.Arg)
	}
}

func TestActionAppendMatchesFmt(t *testing.T) {
	kinds := []ActionKind{Stay, Move, Charge, 3, 99, -1}
	args := []int{0, 1, 4, 7, 13, -1, -42, math.MaxInt, math.MinInt}
	prefix := []byte("slot|taxi|")
	for _, k := range kinds {
		for _, arg := range args {
			a := Action{Kind: k, Arg: arg}
			want := fmtAction(a)
			if got := a.String(); got != want {
				t.Fatalf("%#v.String() = %q, want %q", a, got, want)
			}
			got := a.Append(append([]byte(nil), prefix...))
			if string(got) != string(prefix)+want {
				t.Fatalf("%#v.Append(prefix) = %q, want %q", a, got, string(prefix)+want)
			}
		}
	}
}
