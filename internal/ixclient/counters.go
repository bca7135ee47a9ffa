package ixclient

import (
	"efind/internal/chaos"
	"efind/internal/mapreduce"
)

// Counter name helpers: EFind statistics ride on MapReduce counters
// (§4.2), namespaced per operator and per index. The client is the single
// writer of these counters, but it never builds a name per lookup: New
// resolves every name once into a dense mapreduce.Counter (or SketchID)
// handle, and the per-key paths bump task slots through those handles.
// Names reappear only when the engine folds a finished task's slots into
// its TaskStats, where the planner's statistics collector (core/stats.go)
// reads them back by the same names built here.
func prefix(op, ix string) string { return "efind." + op + ".ix." + ix + "." }

// CtrKeys counts extracted lookup keys (the numerator of Nik).
func CtrKeys(op, ix string) string { return prefix(op, ix) + "keys" }

// CtrKeyBytes accumulates lookup key sizes (Sik).
func CtrKeyBytes(op, ix string) string { return prefix(op, ix) + "key.bytes" }

// CtrValBytes accumulates lookup result sizes (Siv).
func CtrValBytes(op, ix string) string { return prefix(op, ix) + "val.bytes" }

// CtrLookups counts real index accesses performed.
func CtrLookups(op, ix string) string { return prefix(op, ix) + "lookups" }

// CtrServeNS accumulates charged index serve time in nanoseconds (Tj).
func CtrServeNS(op, ix string) string { return prefix(op, ix) + "serve.ns" }

// CtrProbes counts lookup-cache probes (real or shadow).
func CtrProbes(op, ix string) string { return prefix(op, ix) + "cache.probes" }

// CtrMisses counts lookup-cache misses (the numerator of R).
func CtrMisses(op, ix string) string { return prefix(op, ix) + "cache.misses" }

// CtrMulti counts records with more than one key for the index
// (re-partitioning feasibility).
func CtrMulti(op, ix string) string { return prefix(op, ix) + "multikey" }

// CtrErrors counts index accesses that returned an error.
func CtrErrors(op, ix string) string { return prefix(op, ix) + "errors" }

// CtrRetries counts index-level retry attempts after transient errors.
func CtrRetries(op, ix string) string { return prefix(op, ix) + "retries" }

// CtrTimeouts counts lookups abandoned at the client-side deadline.
func CtrTimeouts(op, ix string) string { return prefix(op, ix) + "timeouts" }

// CtrNetRoundTrips counts charged network round trips to the index — one
// per remote key without batching, one per remote partition group with it.
func CtrNetRoundTrips(op, ix string) string { return prefix(op, ix) + "net.roundtrips" }

// CtrIndexProbes counts index-only probes: presence/size answered from
// the index's slot section without materializing values (index.Prober).
func CtrIndexProbes(op, ix string) string { return prefix(op, ix) + "iprobes" }

// SkKeys names the FM sketch of distinct lookup keys (Theta).
func SkKeys(op, ix string) string { return prefix(op, ix) + "fm" }

// FMWidth is the per-task FM sketch width used for the Theta estimate.
const FMWidth = 64

// handles are one client's counter and sketch handles, resolved from the
// names above once, in New.
type handles struct {
	keys, keyBytes, valBytes   mapreduce.Counter
	lookups, serveNS           mapreduce.Counter
	probes, misses             mapreduce.Counter
	errors, retries, timeouts  mapreduce.Counter
	netRoundTrips, indexProbes mapreduce.Counter
	unavailable                mapreduce.Counter
	keySketch                  mapreduce.SketchID
}

func newHandles(op, ix string) handles {
	return handles{
		keys:          mapreduce.CounterFor(CtrKeys(op, ix)),
		keyBytes:      mapreduce.CounterFor(CtrKeyBytes(op, ix)),
		valBytes:      mapreduce.CounterFor(CtrValBytes(op, ix)),
		lookups:       mapreduce.CounterFor(CtrLookups(op, ix)),
		serveNS:       mapreduce.CounterFor(CtrServeNS(op, ix)),
		probes:        mapreduce.CounterFor(CtrProbes(op, ix)),
		misses:        mapreduce.CounterFor(CtrMisses(op, ix)),
		errors:        mapreduce.CounterFor(CtrErrors(op, ix)),
		retries:       mapreduce.CounterFor(CtrRetries(op, ix)),
		timeouts:      mapreduce.CounterFor(CtrTimeouts(op, ix)),
		netRoundTrips: mapreduce.CounterFor(CtrNetRoundTrips(op, ix)),
		indexProbes:   mapreduce.CounterFor(CtrIndexProbes(op, ix)),
		unavailable:   mapreduce.CounterFor(chaos.CtrUnavailable),
		keySketch:     mapreduce.SketchFor(SkKeys(op, ix)),
	}
}
