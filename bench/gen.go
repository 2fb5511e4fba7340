package main

import (
	"math"
	"math/rand"
)

// Input generators. Every one draws only from the *rand.Rand it is
// given, so a seed fixes the whole request stream.

// newRNG derives an independent stream for one purpose (client id,
// phase) from the run seed.
func newRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 1))
}

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta (Gray et
// al.'s generator, as used by YCSB; math/rand's Zipf needs s > 1 and
// the workloads want 0.99). Ranks are scattered over the key space by
// a fixed multiplicative permutation so that hot keys are not
// neighbours on one page.
type zipf struct {
	n                   int64
	theta, alpha, zetan float64
	eta, half           float64
	mult                int64
}

func zeta(n int64, theta float64) float64 {
	var s float64
	for i := int64(1); i <= n; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	return s
}

func newZipf(n int64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n, theta)}
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	z.mult = coprimeNear(n, 2654435761%n)
	return z
}

// coprimeNear returns the smallest m >= start (m >= 1) with gcd(m, n) = 1,
// which makes k -> k*m mod n a permutation of [0, n).
func coprimeNear(n, start int64) int64 {
	if start < 1 {
		start = 1
	}
	for m := start; ; m++ {
		a, b := m, n
		for b != 0 {
			a, b = b, a%b
		}
		if a == 1 {
			return m
		}
	}
}

func (z *zipf) rank(rng *rand.Rand) int64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// key returns a Zipf-distributed key in [0, n).
func (z *zipf) key(rng *rand.Rand) int64 {
	return int64((uint64(z.rank(rng)) * uint64(z.mult)) % uint64(z.n))
}

// slidingWindow draws keys in [0, n): hotFrac of them from a window of
// width keys whose base advances by one key every stride draws (so the
// hot set drifts through the table and old hot rows go cold), the rest
// uniformly from the whole table.
type slidingWindow struct {
	n, width int64
	stride   int
	hotPct   int
	draws    int64
}

func (s *slidingWindow) key(rng *rand.Rand) int64 {
	base := (s.draws / int64(s.stride)) % s.n
	s.draws++
	if rng.Intn(100) < s.hotPct {
		return (base + rng.Int63n(s.width)) % s.n
	}
	return rng.Int63n(s.n)
}

// nurand is TPC-C's non-uniform random function NURand(A, x, y) with a
// fixed run constant C.
func nurand(rng *rand.Rand, a, x, y int) int {
	const c = 42
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

var lastNameSyllables = [...]string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// lastName builds the TPC-C customer last name for a number in [0, 999].
func lastName(num int) string {
	return lastNameSyllables[num/100] + lastNameSyllables[num/10%10] + lastNameSyllables[num%10]
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// randString returns a random alphanumeric string of length in [lo, hi].
func randString(rng *rand.Rand, lo, hi int) string {
	n := lo
	if hi > lo {
		n += rng.Intn(hi - lo + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[rng.Intn(len(alnum))]
	}
	return string(b)
}
