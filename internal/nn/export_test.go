package nn

// kernelTier is one of the package's kernel tiers, named by the gates it
// sets: the 16-lane AVX-512 panel and exp kernel, the 8-lane AVX panel and
// tanh epilogue, or the portable scalar loops.
type kernelTier struct {
	name        string
	avx, avx512 bool
}

var (
	scalarTier     = kernelTier{"scalar", false, false}
	allKernelTiers = []kernelTier{{"avx512", true, true}, {"avx", true, false}, scalarTier}
)

// hostAVX and hostAVX512 are the gates as CPUID set them, captured before
// any test forces a tier.
var hostAVX, hostAVX512 = haveAVX, haveAVX512

// hostKernelTiers returns the tiers this host can run, widest first; the
// scalar tier is always last.
func hostKernelTiers() []kernelTier {
	var out []kernelTier
	for _, k := range allKernelTiers {
		if (!k.avx || hostAVX) && (!k.avx512 || hostAVX512) {
			out = append(out, k)
		}
	}
	return out
}

// withKernelTier runs fn with the gates forced to tier k and restores them
// however fn exits. Callers must not run in parallel with other tests.
func withKernelTier(k kernelTier, fn func()) {
	defer func(avx, avx512 bool) { haveAVX, haveAVX512 = avx, avx512 }(haveAVX, haveAVX512)
	haveAVX, haveAVX512 = k.avx, k.avx512
	fn()
}

// KernelTiersForTest names the kernel tiers this host can run, widest
// first: "avx512" (16-lane GEMM panel and exp kernel), "avx" (8-lane GEMM
// panel and tanh epilogue) and "scalar", which is always last.
func KernelTiersForTest() []string {
	var names []string
	for _, k := range hostKernelTiers() {
		names = append(names, k.name)
	}
	return names
}

// WithKernelTierForTest is withKernelTier for the external nn_test
// package: it runs fn with the kernels forced to the named tier (one of
// KernelTiersForTest). Callers must not run in parallel with other tests.
func WithKernelTierForTest(name string, fn func()) {
	for _, k := range hostKernelTiers() {
		if k.name == name {
			withKernelTier(k, fn)
			return
		}
	}
	panic("nn: kernel tier " + name + " is not available on this host")
}
