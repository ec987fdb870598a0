// Package baseline implements the comparators BitFlow is evaluated
// against in the paper:
//
//   - counterpart full-precision (float32) operators on CPU: direct
//     convolution, dense, max-pool — the 1× reference of Figs. 7–9;
//   - the *unoptimized BNN* implementation: conventional image-to-column
//     binary convolution, bit-packed along the unfolded dimension and
//     executed with the scalar single-word kernel only (no vector
//     parallelism), exactly the baseline of Fig. 7.
//
// These are real, tested implementations (not stubs): every speedup the
// benchmark harness reports is measured against them.
package baseline
