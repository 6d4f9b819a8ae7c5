// Package infotheory implements the paper's security analyses (Section V):
// the storage-channel capacity of the random fill cache (Equations 7 and 8,
// Figure 5), the Monte Carlo estimation of the timing-channel signal P1-P2
// (Equation 6, Table III), and the analytic estimate of the number of
// measurements a cache collision attack needs (Equation 5).
package infotheory

import (
	"context"
	"math"

	"randfill/internal/aes"
	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/parexp"
	"randfill/internal/rng"
)

// Capacity returns the storage-channel capacity in bits for a
// security-critical region of M cache lines under a random fill window
// [-a, +b] (Equation 8). The sender S is the victim's accessed line
// (uniform over M); the receiver R observes which line was randomly filled.
// With a = b = 0 (demand fetch) the channel is the identity and the
// capacity is log2(M).
func Capacity(m, a, b int) float64 {
	if m <= 0 {
		return 0
	}
	w := a + b + 1
	// Receiver symbols j span [0-a, m-1+b] relative to the region start.
	// P(R=j) = sum_i P(S=i) P(R=j|S=i) = colCount(j) / (M*W), where
	// colCount(j) = |{i : i-a <= j <= i+b}|.
	var c float64
	for i := 0; i < m; i++ {
		for j := i - a; j <= i+b; j++ {
			// Pij = 1/W. Column sum over i' for this j.
			lo := j - b
			if lo < 0 {
				lo = 0
			}
			hi := j + a
			if hi > m-1 {
				hi = m - 1
			}
			col := float64(hi-lo+1) / float64(w)
			pij := 1.0 / float64(w)
			// Contribution: (1/M) Pij log2(M Pij / colSum).
			c += pij / float64(m) * math.Log2(float64(m)*pij/col)
		}
	}
	if c < 0 {
		c = 0
	}
	return c
}

// NormalizedCapacity returns Capacity(m,a,b) / Capacity(m,0,0), the
// quantity Figure 5 plots (capacity normalized to the demand fetch case).
func NormalizedCapacity(m, a, b int) float64 {
	denom := Capacity(m, 0, 0)
	if denom == 0 {
		return 0
	}
	return Capacity(m, a, b) / denom
}

// MeasurementsRequired implements Equation 5: the number of measurements N
// for a successful collision attack given the timing signal
// (P1-P2)(tmiss-thit), the execution-time standard deviation sigmaT, and
// the desired success likelihood alpha. It returns +Inf when the signal is
// zero (the attack cannot succeed).
func MeasurementsRequired(p1MinusP2, tMissMinusTHit, sigmaT, alpha float64) float64 {
	signal := p1MinusP2 * tMissMinusTHit
	if signal == 0 || sigmaT <= 0 {
		return math.Inf(1)
	}
	z := normalQuantile(alpha)
	r := signal / sigmaT
	return 2 * z * z / (r * r)
}

// normalQuantile returns z_alpha, the quantile of the standard normal
// distribution for probability alpha (the Z_alpha of Equation 5), by
// bisection on the normal CDF: Eq. 5 only needs a few digits.
func normalQuantile(alpha float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if normalCDF(mid) < alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// P1P2Config configures the Monte Carlo estimation of P1 and P2 for the
// AES final-round table (Table III).
type P1P2Config struct {
	// NewCache builds a fresh (or freshly flushed) cache for each trial
	// series; it is invoked once and the cache is flushed per trial.
	NewCache func(src *rng.Source) cache.Cache
	// Window is the victim's random fill window.
	Window rng.Window
	// Trials is the number of Monte Carlo trials (the paper uses
	// 100,000, each encrypting one block of random plaintext).
	Trials int
	// Lookups is the number of security-critical lookups per trial (16
	// final-round lookups per block).
	Lookups int
	// Region is the security-critical table (16 lines for a 1 KB table).
	Region mem.Region
	// Seed drives plaintext/key randomness and the fill engine.
	Seed uint64
}

// P1P2Result reports the Monte Carlo estimates. It is mergeable: the raw
// integer counts behind the ratios are carried so that shard estimates fold
// together exactly (integer sums, no floating-point accumulation order),
// which is what makes the sharded Table III worker-count invariant.
type P1P2Result struct {
	P1, P2 float64
	// Pairs counted in each condition.
	CollisionPairs, NoCollisionPairs uint64
	// Hits counted in each condition (numerators of P1 and P2).
	P1Hits, P2Hits uint64
}

// Diff returns P1 - P2, the attacker's signal.
func (r P1P2Result) Diff() float64 { return r.P1 - r.P2 }

// Merge folds other's trials into r, as if r's Monte Carlo run had
// performed them itself, and recomputes the ratios from the summed counts.
func (r *P1P2Result) Merge(other P1P2Result) {
	r.CollisionPairs += other.CollisionPairs
	r.NoCollisionPairs += other.NoCollisionPairs
	r.P1Hits += other.P1Hits
	r.P2Hits += other.P2Hits
	r.P1, r.P2 = 0, 0
	if r.CollisionPairs > 0 {
		r.P1 = float64(r.P1Hits) / float64(r.CollisionPairs)
	}
	if r.NoCollisionPairs > 0 {
		r.P2 = float64(r.P2Hits) / float64(r.NoCollisionPairs)
	}
}

// MonteCarloP1P2 estimates P1 = P(xj hit | <xi> = <xj>) and
// P2 = P(xj hit | <xi> != <xj>) averaged over all lookup pairs (i < j)
// within each trial's security-critical lookup sequence, starting each
// trial from a clean cache (the attacker's best case, Section V.A).
//
// Each trial performs an actual AES final round: a random key and plaintext
// block are encrypted and the 16 T4 lookup indices drive the cache.
func MonteCarloP1P2(cfg P1P2Config) P1P2Result {
	src := rng.New(cfg.Seed)
	cacheSrc := src.Split(1)
	keySrc := src.Split(2)
	engineSrc := src.Split(3)

	c := cfg.NewCache(cacheSrc)
	eng := core.NewEngine(c, engineSrc)
	eng.SetRR(cfg.Window.A, cfg.Window.B)

	lookups := cfg.Lookups
	if lookups == 0 {
		lookups = 16
	}

	var hit = make([]bool, lookups)
	var lines = make([]mem.Line, lookups)

	var res P1P2Result

	var key, pt, ct [16]byte
	// One cipher and one recorder serve all trials: SetKey re-keys in place
	// and the index slice is truncated per trial, so the hot loop's only
	// work is the key schedule and the traced final round.
	cipher := &aes.Cipher{}
	rec := &finalRoundRec{}
	for trial := 0; trial < cfg.Trials; trial++ {
		c.Flush()
		keySrc.Bytes(key[:])
		keySrc.Bytes(pt[:])
		if err := cipher.SetKey(key[:]); err != nil {
			panic(err)
		}
		rec.idx = rec.idx[:0]
		cipher.Encrypt(ct[:], pt[:], rec)

		for k := 0; k < lookups && k < len(rec.idx); k++ {
			line := cfg.Region.FirstLine() + mem.Line(rec.idx[k]>>4)
			lines[k] = line
			hit[k] = eng.Access(line, false)
		}

		for j := 1; j < lookups; j++ {
			for i := 0; i < j; i++ {
				if lines[i] == lines[j] {
					res.CollisionPairs++
					if hit[j] {
						res.P1Hits++
					}
				} else {
					res.NoCollisionPairs++
					if hit[j] {
						res.P2Hits++
					}
				}
			}
		}
	}
	if res.CollisionPairs > 0 {
		res.P1 = float64(res.P1Hits) / float64(res.CollisionPairs)
	}
	if res.NoCollisionPairs > 0 {
		res.P2 = float64(res.P2Hits) / float64(res.NoCollisionPairs)
	}
	return res
}

// MonteCarloP1P2ShardedCtx splits cfg.Trials over a fixed shard plan, runs
// each shard as an independent MonteCarloP1P2 with its own Split-derived
// seed on eng's worker pool, and merges the shard counts in shard-index
// order. For a fixed (cfg, shards) the result is identical for any worker
// count; it is a different (equally valid) Monte Carlo sample than the
// serial MonteCarloP1P2 at the same cfg.Seed, because the shards draw from
// split streams. Cancellation is checked between shards; a cancelled run
// discards the partial counts and returns ctx's error.
func MonteCarloP1P2ShardedCtx(ctx context.Context, eng *parexp.Engine, cfg P1P2Config, shards int) (P1P2Result, error) {
	if shards < 1 {
		shards = 1
	}
	seeds := parexp.ShardSeeds(cfg.Seed, shards)
	counts := parexp.SplitCounts(cfg.Trials, shards)
	parts, err := parexp.MapCtx(eng, ctx, shards, func(_ context.Context, s int) (P1P2Result, error) {
		scfg := cfg
		scfg.Seed = seeds[s]
		scfg.Trials = counts[s]
		return MonteCarloP1P2(scfg), nil
	})
	if err != nil {
		return P1P2Result{}, err
	}
	res := parts[0]
	for _, p := range parts[1:] {
		res.Merge(p)
	}
	return res, nil
}

// finalRoundRec captures final-round (Te4) lookup indices.
type finalRoundRec struct{ idx []byte }

// Lookup implements aes.Recorder.
func (r *finalRoundRec) Lookup(table int, index byte, round int, first bool) {
	if table == aes.TableTe4 {
		r.idx = append(r.idx, index)
	}
}
