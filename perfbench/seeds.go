package main

import "hash/fnv"

// Seed handling. The workload seed given on the command line is the only
// source of variation: every trace seed and input seed the program receives
// is derived from it by derive, so one workload seed always produces the
// same inputs and a different one produces different inputs.
//
//	trace seed of harvest slot t   = derive(seed, "trace", t)
//	input seed of harvest slot t   = derive(seed, "input", t)
//	input seed of inject target k  = derive(seed, "inject-input", k)
//	k-th oracle-sample cell        = derive(seed, "reference", k) mod cells
//
// Derived seeds are positive and below 2^31, so they survive every int64
// and JSON round trip the spec path makes.

// Default and held-out workload seeds: tune against the default, claim
// gains on the held-out one as well.
const (
	defaultSeed  = 1
	heldOutSeed  = 7919
	maxSeedValue = 1<<31 - 1
)

// derive mixes (seed, label, i) through splitmix64 into a positive seed.
func derive(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(i)*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%maxSeedValue) + 1
}
