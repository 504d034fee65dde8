package engine

// DiffMatrix exposes the rows of the coarse/striped differential matrix
// to the external decision-digest test, which cannot import this
// package's test files directly (internal/enumerate imports engine).
func DiffMatrix() (names []string, opts []Options) {
	for _, c := range stripedDiffMatrix() {
		names = append(names, c.name)
		opts = append(opts, c.opts)
	}
	return names, opts
}
