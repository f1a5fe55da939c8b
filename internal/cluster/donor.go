package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataprep"
	"repro/internal/engine"
	"repro/internal/timeseries"
)

// Donor-series exchange: the cluster protocol that keeps every shard's
// cold-start donor pool fleet-wide while raw telemetry partitions ~1/N.
//
// With partitioned telemetry each shard's ingest store holds only the
// vehicles the ring assigns to it — but semi-new and new vehicles train
// against the *fleet-wide* old-vehicle donor pool (see core.AddDonor),
// which under broadcast replication every shard could derive locally.
// The exchange replaces that replication: each shard serves its own old
// vehicles' raw daily aggregates on GET /internal/donors, and at every
// retrain a shard pulls its peers' donor sets, runs each series through
// the same §3 preparation pipeline the owner would, and registers the
// results donor-only. Because the wire carries the exact contiguous
// raw series (Go's JSON float64 encoding round-trips bit-exactly) and
// preparation is deterministic, the donor pool — and therefore every
// model and forecast — is bit-identical to an unsharded build over the
// union of the stores.
//
// Consistency: donor sets are pulled from the peers' *stores* (not
// their snapshots), so a retrain sees every report the peers had
// acknowledged when it fetched. Cold-start training reads only the
// donors' first maintenance cycles (old <- own labelled prefix;
// semi-new <- own series through the donor pick + donors' first cycles;
// new <- donors' first cycles), and the pool key that gates reuse
// hashes exactly those: a peer's old vehicle reporting another day
// changes nothing here and retrains nobody on this shard. What does change a shard's cold-start models is a donor
// joining or leaving (a peer's semi-new vehicle completing its first
// cycle), a changed allowance, or a backfilled day inside a donor's
// first cycle; such a change reaches the other shards at their next
// retrain — /admin/retrain at the router scatters to every shard, and
// periodic retrains reconcile on their cadence.

// DonorsPath is the internal endpoint shards serve their local
// old-vehicle aggregates on. It is shard-to-shard only: the router
// does not expose it.
const DonorsPath = "/internal/donors"

// DonorSeries is one old vehicle's raw contiguous daily series as it
// crosses the wire: the exact input the owner's preparation pipeline
// sees, so the puller's dataprep.Prepare reproduces the owner's
// prepared series bit for bit.
type DonorSeries struct {
	ID string `json:"id"`
	// Start is the UTC calendar day ("2006-01-02") of U[0].
	Start string `json:"start"`
	// U is the daily working seconds, unreported days zero.
	U []float64 `json:"u"`
}

// DonorSet is the GET /internal/donors payload, sorted by vehicle ID.
type DonorSet struct {
	Vehicles []DonorSeries `json:"vehicles"`
}

// FetchDonors pulls one peer's donor set and prepares every series
// into a donor-only engine.Vehicle. allowance must match the fleet's
// per-cycle usage allowance (every process derives series with the
// same T_v, or the exchange would not be bit-identical); <= 0 selects
// timeseries.DefaultAllowance, mirroring ingest.New.
func FetchDonors(ctx context.Context, client *http.Client, baseURL string, allowance float64) ([]engine.Vehicle, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if allowance <= 0 {
		allowance = timeseries.DefaultAllowance
	}
	url := strings.TrimSuffix(baseURL, "/") + DonorsPath
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: donor fetch: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: donor fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("cluster: donor fetch %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: donor fetch %s: status %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	var set DonorSet
	if err := json.Unmarshal(body, &set); err != nil {
		return nil, fmt.Errorf("cluster: donor fetch %s: %w", url, err)
	}
	out := make([]engine.Vehicle, 0, len(set.Vehicles))
	for _, d := range set.Vehicles {
		start, err := time.Parse("2006-01-02", d.Start)
		if err != nil {
			return nil, fmt.Errorf("cluster: donor %s: bad start %q", d.ID, d.Start)
		}
		prep, err := dataprep.Prepare(d.ID, start.UTC(), d.U, allowance)
		if err != nil {
			return nil, fmt.Errorf("cluster: preparing donor %s: %w", d.ID, err)
		}
		// The owner only serves vehicles it categorized Old; re-derive
		// the category from the same prepared series as a guard against
		// version skew — only a complete first cycle can enter the pool key.
		if core.Categorize(prep.Series) != core.Old {
			continue
		}
		out = append(out, engine.Vehicle{Series: prep.Series, Start: prep.Start, DonorOnly: true})
	}
	return out, nil
}

// DonorExchangeSource wraps one shard's local fleet source (its
// partitioned ingest store — every vehicle in it is ring-owned by this
// shard) with donor pulls from every peer: the returned source yields
// owned vehicles plus donor-only copies of the peers' old vehicles —
// exactly the per-shard view PartitionSource derives when the full
// fleet is available locally, without storing any peer telemetry.
// Peers are fetched concurrently; any failed peer fails the fetch (a
// partial donor pool would silently change cold-start models), leaving
// the engine serving its previous snapshot.
func DonorExchangeSource(own engine.Source, peerURLs []string, allowance float64, client *http.Client) engine.Source {
	urls := append([]string(nil), peerURLs...)
	sort.Strings(urls)
	return func(ctx context.Context) ([]engine.Vehicle, error) {
		fleet, err := own(ctx)
		if err != nil {
			return nil, err
		}
		donorSets := make([][]engine.Vehicle, len(urls))
		errs := make([]error, len(urls))
		var wg sync.WaitGroup
		for i, url := range urls {
			wg.Add(1)
			go func(i int, url string) {
				defer wg.Done()
				donorSets[i], errs[i] = FetchDonors(ctx, client, url, allowance)
			}(i, url)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for _, donors := range donorSets {
			fleet = append(fleet, donors...)
		}
		return fleet, nil
	}
}
