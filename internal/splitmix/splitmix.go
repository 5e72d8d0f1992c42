// Package splitmix holds the splitmix64 mixer that every deterministic
// derivation and integrity digest in the module uses: trial sub-seeds, the
// live sampler's plans, the service's initial words and result chains, the
// address-stream and dual-execution fold keys, and the memory-snapshot and
// epoch-state digests. It imports nothing, so every package can reach it.
package splitmix

// Golden is the splitmix64 increment, 2^64 divided by the golden ratio.
const Golden = 0x9e3779b97f4a7c15

// Mix is one splitmix64 step: z advanced by Golden, then finalized.
func Mix(z uint64) uint64 { return Finalize(z + Golden) }

// Finalize is the splitmix64 finalizer: a cheap bijective bit mixer.
func Finalize(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
