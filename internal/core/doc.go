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
// Each operator has one forward body per output form (Conv: raw Forward,
// ForwardPacked, ForwardFused with the following max-pool; Dense:
// Forward, ForwardFloat, ForwardPacked), every one a single image wide.
// What varies inside a body is a step, not a twin method: an operator
// holding a kernel-compression plan (compress.go) accumulates a window
// through the plan instead of sweeping its bank, and batches are the
// graph's business — it runs these same bodies once per image, across
// workers.
package core
