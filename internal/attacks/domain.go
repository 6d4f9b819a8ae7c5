package attacks

import "randfill/internal/cache"

// asDomain sets the active trust domain if the cache is domain-aware: the
// functional attacks switch domains between attacker and victim operations
// when the cache supports it.
func asDomain(c cache.Cache, d int) {
	if dc, ok := c.(cache.DomainAware); ok {
		dc.SetActiveDomain(d)
	}
}

// Attacker and victim trust domain ids used by the functional attacks.
const (
	attackerDomain = 0
	victimDomain   = 1
)
