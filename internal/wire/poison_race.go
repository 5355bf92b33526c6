//go:build race

package wire

// poisonOnPut: race builds overwrite a recycled vector with NaN (see
// PutFloat64s). The mirror of the !race alloc-test files: it changes what a
// bug looks like, never a result.
const poisonOnPut = true
