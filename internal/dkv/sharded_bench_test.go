package dkv

import (
	"fmt"
	"testing"
	"time"

	"icache/internal/dataset"
	"icache/internal/simclock"
)

// BenchmarkDirSharded measures how directory lookup throughput scales with
// the number of shards, in SIMULATED time: this container has one CPU, so
// real parallelism cannot show a partitioning win — instead each replica is
// a simclock.Resource (a FIFO server with a fixed per-RPC cost plus a
// per-key cost, the shape of a real dkv process whose CPU is dominated by
// per-key hash/lease work), 100 nodes drive closed-loop LookupBatch(16)
// traffic through a real ShardedDir, and throughput is total lookups over
// the virtual makespan (the drain time of the busiest replica).
//
// With one shard every RPC serializes on one resource; with N shards
// rendezvous routing splits each batch across N resources that drain
// concurrently, so simlookups/sec should scale near-linearly (the per-RPC
// cost of the extra sub-batches is the non-ideal part). `make bench-layers`
// runs the three curves.

// Cost model: per-key work dominates (hash probe, lease check, owner
// encode); framing/dispatch overhead is small but charged per sub-batch,
// which is exactly the cost fan-out adds.
const (
	benchPerRPC = 5 * time.Microsecond
	benchPerKey = 10 * time.Microsecond
)

// meteredDir wraps one in-process replica with a virtual-time FIFO meter.
// The driver deposits each request's arrival time in *arrival before the
// ShardedDir call; every sub-batch the router sends here is served FIFO on
// this replica's resource, and the latest completion lands in *done.
type meteredDir struct {
	Local
	res     *simclock.Resource
	arrival *simclock.Time
	done    *simclock.Time
}

func (m *meteredDir) LookupBatch(ids []dataset.SampleID) ([]Owner, error) {
	cost := benchPerRPC + time.Duration(len(ids))*benchPerKey
	if _, end := m.res.Acquire(*m.arrival, cost); end > *m.done {
		*m.done = end
	}
	return m.Local.LookupBatch(ids)
}

func (m *meteredDir) Lookup(id dataset.SampleID) (NodeID, bool, error) {
	if _, end := m.res.Acquire(*m.arrival, benchPerRPC+benchPerKey); end > *m.done {
		*m.done = end
	}
	return m.Local.Lookup(id)
}

func BenchmarkDirSharded(b *testing.B) {
	const (
		nodes     = 100
		rounds    = 50
		batchSize = 16
	)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var tput float64
			for iter := 0; iter < b.N; iter++ {
				var arrival, done simclock.Time
				resources := make([]*simclock.Resource, shards)
				replicas := make(map[ReplicaID]Service, shards)
				for r := 0; r < shards; r++ {
					resources[r] = &simclock.Resource{}
					replicas[ReplicaID(r)] = &meteredDir{
						Local:   Local{Dir: NewDirectory()},
						res:     resources[r],
						arrival: &arrival,
						done:    &done,
					}
				}
				s := NewShardedDir(replicas, ShardedConfig{
					Clock: func() simclock.Time { return arrival },
				})

				// Seed ownership through the router (placement = routing), then
				// zero the meters so only the lookup traffic is measured.
				for id := dataset.SampleID(0); id < nodes*batchSize; id++ {
					if ok, err := s.Claim(id, NodeID(int64(id)%nodes)); err != nil || !ok {
						b.Fatalf("seed claim(%d): %v/%v", id, ok, err)
					}
				}
				for _, r := range resources {
					r.Reset()
				}

				// Closed-loop workload: each node's next mini-batch departs when
				// its previous one completes (lookup latency gates the training
				// step, exactly the iCache serving path).
				next := make([]simclock.Time, nodes)
				batch := make([]dataset.SampleID, batchSize)
				for round := 0; round < rounds; round++ {
					for n := 0; n < nodes; n++ {
						for i := range batch {
							batch[i] = dataset.SampleID((n*batchSize + i + round*7) % (nodes * batchSize))
						}
						arrival, done = next[n], next[n]
						owners, err := s.LookupBatch(batch)
						if err != nil {
							b.Fatal(err)
						}
						if len(owners) != batchSize {
							b.Fatalf("router returned %d owners for %d ids", len(owners), batchSize)
						}
						next[n] = done
					}
				}

				var makespan simclock.Time
				for _, r := range resources {
					if r.BusyUntil() > makespan {
						makespan = r.BusyUntil()
					}
				}
				tput = float64(nodes*rounds*batchSize) / makespan.Seconds()
			}
			b.ReportMetric(tput, "simlookups/sec")
		})
	}
}
