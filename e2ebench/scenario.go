package main

import (
	"fmt"
	"math/rand"

	"github.com/mia-rt/mia/internal/model"
)

// site is one adjacent-swap position of a per-core order: positions Pos and
// Pos+1 of core Core's order trade places.
type site struct {
	Core int `json:"core"`
	Pos  int `json:"pos"`
}

// swapSites lists, per core, every adjacent order position whose two tasks
// sit in the same layer (equal longest-path depth). Such a swap is always
// schedulable: equal depth rules out a dependency path between the two
// tasks, and in a layer-major baseline order no same-core order edge leads
// back to a lower layer, so the swapped order cannot deadlock.
func swapSites(g *model.Graph) ([][]site, error) {
	depth, err := g.Depths()
	if err != nil {
		return nil, err
	}
	sites := make([][]site, g.Cores)
	total := 0
	for k := 0; k < g.Cores; k++ {
		ord := g.Order(model.CoreID(k))
		for pos := 0; pos+1 < len(ord); pos++ {
			if depth[ord[pos]] == depth[ord[pos+1]] {
				sites[k] = append(sites[k], site{Core: k, Pos: pos})
			}
		}
		total += len(sites[k])
	}
	if total == 0 {
		return nil, fmt.Errorf("graph has no same-layer adjacent pair to swap")
	}
	return sites, nil
}

// pickSwaps draws n distinct same-layer swaps: a core uniformly among the
// cores that have a site, then a position uniformly over that core's sites.
// Distinct swaps evaluate distinct configurations, so the server's per-batch
// memo never answers one from another.
func pickSwaps(rng *rand.Rand, sites [][]site, n int) []site {
	var cores []int
	total := 0
	for k, s := range sites {
		if len(s) > 0 {
			cores = append(cores, k)
			total += len(s)
		}
	}
	if n > total {
		n = total
	}
	seen := make(map[site]bool, n)
	out := make([]site, 0, n)
	for len(out) < n {
		k := cores[rng.Intn(len(cores))]
		s := sites[k][rng.Intn(len(sites[k]))]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
