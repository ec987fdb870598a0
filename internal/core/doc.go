// Package core implements BitFlow's primary contribution: the PressedConv
// binary convolution algorithm (paper §III-B, Algorithm 1) together with
// the binary fully connected and binary max-pooling operators built in
// the same style (§III-C).
//
// PressedConv abandons the conventional image-to-column method — which
// has low arithmetic intensity and an unfriendly pattern for bitwise
// operations when applied to binary convolution (§III-A) — and instead:
//
//  1. bit-packs the input tensor along the channel dimension (Fig. 3);
//  2. bit-packs the filters along the channel dimension (done once at
//     network initialization);
//  3. convolves the pressed operands directly: multiplications are XOR,
//     accumulations are popcount (Equation 1), with vector parallelism on
//     the C dimension and multi-core parallelism on the fused H and W
//     dimension (Algorithm 1).
//
// Spatial zero padding is realized at zero cost by pre-allocating margined
// buffers and writing convolution results into the interior (Fig. 5);
// margin words stay all-zero.
//
// The forward bodies are Conv.Forward (the raw reference),
// Conv.ForwardPacked, Dense.Forward, Pool.Forward and FloatConv.Forward,
// every one a single image wide. What varies inside a body is an
// argument or a step, not a twin method: Conv.ForwardPacked takes an
// optional max-pool, whose windows OR threshold bits together (binary
// max-pool is a bitwise OR of sign bits, §III-C), so a pooled conv is
// the same body with windows wider than one position; Dense.Forward
// takes its output form (accumulators, float logits through the affine,
// or packed sign bits) as a DenseOut value fixed at build time; a conv
// whose bank folds onto its distinct filters (compress.go) sweeps those
// and copies the counts out; and batches are the
// graph's business — it runs these same bodies once per image, across
// workers.
package core
