package nn

import "math"

// MSELoss returns the mean-squared-error loss over a batch and the gradient
// dL/dpred (averaged over the batch). pred and target must have identical
// shapes. The loss and each gradient element are accumulated in float64 and
// narrowed once on store.
func MSELoss(pred, target *Mat) (loss float64, grad *Mat) {
	return MSELossInto(pred, target, nil)
}

// MSELossInto is MSELoss writing the gradient into grad's storage (reused
// when it fits, nil allocates) and returning it.
func MSELossInto(pred, target, grad *Mat) (float64, *Mat) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSELoss shape mismatch")
	}
	grad = ensureMat(grad, pred.Rows, pred.Cols)
	var loss float64
	n := float64(len(pred.Data))
	for i := range pred.Data {
		d := float64(pred.Data[i]) - float64(target.Data[i])
		loss += d * d
		grad.Data[i] = float32(2 * d / n)
	}
	return loss / n, grad
}

// Softmax computes a numerically stable softmax of float32 logits,
// optionally restricted to a mask (nil = all valid). Masked-out entries
// receive probability 0. The exponentials and normalization run in float64:
// probabilities feed rng.WeightedChoice and the gradient helpers, where the
// extra precision is free.
func Softmax(logits []float32, mask []bool) []float64 {
	return SoftmaxInto(logits, mask, make([]float64, len(logits)))
}

// SoftmaxInto is Softmax writing into probs, which must have the logits'
// length (it is the caller's scratch, typically a fixed action-width
// buffer). Returns probs.
//
// On the 16-lane tier (haveAVX512) the exponentials run through
// expKernel8 whenever every valid argument lies in [expVecMin, 0], which
// returns math.Exp's bits; any other argument (NaN, -Inf, below
// expVecMin) sends the row to math.Exp. The sum and divides are scalar in
// index order either way, so the probabilities are identical on every
// tier.
func SoftmaxInto(logits []float32, mask []bool, probs []float64) []float64 {
	if len(probs) != len(logits) {
		panic("nn: SoftmaxInto scratch length mismatch")
	}
	maxL := math.Inf(-1)
	for i, l := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		if float64(l) > maxL {
			maxL = float64(l)
		}
	}
	if math.IsInf(maxL, -1) {
		clear(probs) // fully masked: all zeros
		return probs
	}
	for i, l := range logits {
		x := 0.0
		if mask == nil || mask[i] {
			x = float64(l) - maxL
		}
		probs[i] = x
	}
	if !haveAVX512 || !expInto(probs) {
		for i, x := range probs {
			if mask == nil || mask[i] {
				probs[i] = math.Exp(x)
			}
		}
	}
	if mask != nil {
		for i, ok := range mask[:len(probs)] {
			if !ok {
				probs[i] = 0 // expInto left exp(0) = 1 here
			}
		}
	}
	// Masked cells add +0, which leaves the index-order sum's bits alone.
	var sum float64
	for _, e := range probs {
		sum += e
	}
	if sum == 0 {
		return probs
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// PolicyGradientRowInto writes one batch row of the policy-gradient loss
// into grad (typically a row of the n×actions gradient matrix handed to
// Backward), overwriting it:
//
//	grad = scale · (advantage · (π − onehot(action)) − entCoef · dH/dlogits)
//
// where π is the masked softmax of logits and H its entropy — the
// advantage-weighted policy gradient of Eq. 8 of the paper fused with the
// optional entropy bonus (entCoef = 0 skips the entropy term entirely).
// Masked entries get gradient 0. probs is caller scratch with the logits'
// length; all math runs in float64 and narrows once on store. The fused
// form replaces the separate PolicyGradient/EntropyBonusGradient passes:
// one softmax, no intermediate slices, zero allocations.
func PolicyGradientRowInto(logits []float32, mask []bool, action int, advantage, entCoef, scale float64, probs []float64, grad []float32) {
	if len(grad) != len(logits) {
		panic("nn: PolicyGradientRowInto scratch length mismatch")
	}
	probs = SoftmaxInto(logits, mask, probs)
	var ent float64
	if entCoef != 0 {
		for _, p := range probs {
			if p > 0 {
				ent -= p * math.Log(p)
			}
		}
	}
	for i := range grad {
		grad[i] = 0
	}
	for i, p := range probs {
		if mask != nil && !mask[i] {
			continue
		}
		g := p
		if i == action {
			g -= 1
		}
		g *= advantage
		// dH/dl_i = -p_i (log p_i + H); the bonus contributes -entCoef · dH.
		if entCoef != 0 && p > 0 {
			g += entCoef * p * (math.Log(p) + ent)
		}
		grad[i] = float32(scale * g)
	}
}

// PolicyGradient returns dL/dlogits for the policy-gradient loss
// L = -advantage · log π(action) as a fresh float32 row (convenience for
// tests and cold paths; hot paths use PolicyGradientRowInto).
func PolicyGradient(logits []float32, mask []bool, action int, advantage float64) []float32 {
	grad := make([]float32, len(logits))
	PolicyGradientRowInto(logits, mask, action, advantage, 0, 1, make([]float64, len(logits)), grad)
	return grad
}

// Entropy returns the Shannon entropy of a probability vector.
func Entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= p * math.Log(p)
		}
	}
	return h
}

// ClipGrads scales all gradients so their global L2 norm does not exceed
// maxNorm, returning the pre-clip norm. No-op if maxNorm <= 0. The squared
// norm accumulates in float64 — float32 would overflow around 1e19 and lose
// precision long before.
func ClipGrads(grads [][]float32, maxNorm float64) float64 {
	var sq float64
	for _, g := range grads {
		for _, v := range g {
			sq += float64(v) * float64(v)
		}
	}
	norm := math.Sqrt(sq)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, g := range grads {
		for i := range g {
			g[i] *= scale
		}
	}
	return norm
}
