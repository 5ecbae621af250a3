package dnn

import "fmt"

// GNMT sequence-model parameters. GNMT inference is autoregressive: the
// per-timestep LSTM GEMMs cannot be batched across time, which the Repeat
// field expresses (see DESIGN.md §3 for the substitution rationale).
const (
	gnmtHidden = 1024
	gnmtLayers = 8
	gnmtSeqLen = 12
	gnmtBeam   = 4
	gnmtVocab  = 32000
)

// GNMT builds the Google NMT translation model as the sequence of GEMMs a
// fixed-length (12-token, beam-4) inference performs: an 8-layer LSTM
// encoder (first layer bidirectional), an 8-layer LSTM decoder with
// attention, and the vocabulary projection. All recurrent GEMMs carry
// Repeat = timestep count to model their strict sequential dependency.
func GNMT() *Network {
	b := NewBuilder("GNMT", "translation", 1, 1, gnmtHidden)

	// Encoder. Each LSTM layer computes, per timestep, the four gates:
	// a GEMM of [x_t ; h_{t-1}] (2·hidden) by (4·hidden).
	// Layer 1 is bidirectional: two such passes.
	k := 2 * gnmtHidden
	n := 4 * gnmtHidden
	b.MatMul("enc1_fwd", 1, k, n, gnmtSeqLen)
	b.MatMul("enc1_bwd", 1, k, n, gnmtSeqLen)
	for l := 2; l <= gnmtLayers; l++ {
		b.MatMul(fmt.Sprintf("enc%d", l), 1, k, n, gnmtSeqLen)
	}

	// Decoder: beam-width rows per step.
	for l := 1; l <= gnmtLayers; l++ {
		b.MatMul(fmt.Sprintf("dec%d", l), gnmtBeam, k, n, gnmtSeqLen)
	}
	// Attention per decode step: score the encoder states (beam × hidden ·
	// hidden × seq) and form the context (beam × seq · seq × hidden).
	b.MatMul("attn_score", gnmtBeam, gnmtHidden, gnmtSeqLen, gnmtSeqLen)
	b.MatMul("attn_context", gnmtBeam, gnmtSeqLen, gnmtHidden, gnmtSeqLen)
	// Vocabulary projection per decode step.
	b.MatMul("vocab_proj", gnmtBeam, gnmtHidden, gnmtVocab, gnmtSeqLen)

	return b.MustBuild()
}
