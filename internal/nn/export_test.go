package nn

// WithoutAVXForTest runs fn with the AVX kernels switched off and restores
// the gate however fn exits, so tests in the external nn_test package can
// run the same computation through both kernel paths. Callers must not run
// in parallel with other tests.
func WithoutAVXForTest(fn func()) {
	defer func(prev bool) { haveAVX = prev }(haveAVX)
	haveAVX = false
	fn()
}

// HaveAVXForTest reports the AVX kernel gate.
func HaveAVXForTest() bool { return haveAVX }
