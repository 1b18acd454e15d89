package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mia-rt/mia/internal/gen"
)

// TestEvictionHammer is the -race regression for the eviction-vs-in-flight
// audit: warm caches of capacity 1 under concurrent analyze, reschedule, and
// batch traffic over more graphs than fit, so every worker evicts constantly
// while analyses are in flight. Under -race this fails if an eviction ever
// disturbs analyzer state a request is standing on.
func TestEvictionHammer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64, WarmCacheSize: 1})

	const graphs = 4
	type target struct {
		hash string
		body []byte
	}
	targets := make([]target, graphs)
	for i := range targets {
		p := gen.NewParams(1, 64)
		p.Seed = int64(i + 1)
		g, err := gen.Layered(p)
		if err != nil {
			t.Fatalf("generating graph %d: %v", i, err)
		}
		body := graphJSON(t, g)
		targets[i] = target{hash: responseHash(t, analyzeGraph(t, s, body)), body: body}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				tg := targets[(c+i)%graphs]
				var rr *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					rr = do(s, http.MethodPost, "/v1/analyze", bytes.NewReader(tg.body))
				case 1:
					rr = do(s, http.MethodPost, "/v1/reschedule",
						strings.NewReader(fmt.Sprintf(`{"hash":%q,"swaps":[{"core":0,"pos":0},{"core":0,"pos":0}]}`, tg.hash)))
				default:
					rr = do(s, http.MethodPost, "/v1/batch",
						strings.NewReader(fmt.Sprintf(`{"hash":%q,"items":[{"swaps":[]},{"swaps":[{"core":0,"pos":0},{"core":0,"pos":0}]}]}`, tg.hash)))
				}
				if rr.Code != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d (%s)", c, i, rr.Code, rr.Body.String())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

}
