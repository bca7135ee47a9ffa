package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"efind/internal/dfs"
	"efind/internal/workloads"
)

// digest is postProcess's fixed-size stand-in for a lookup result: the
// number of values, the first value's length, and an FNV-1a hash of at
// most its first and last 16 bytes.
func digest(vals []string) string {
	var v string
	if len(vals) > 0 {
		v = vals[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		if i == 16 && len(v) > 32 {
			i = len(v) - 16
		}
		h = (h ^ uint32(v[i])) * 16777619
	}
	var b [32]byte
	out := strconv.AppendInt(b[:0], int64(len(vals)), 10)
	out = append(out, '/')
	out = strconv.AppendInt(out, int64(len(v)), 10)
	out = append(out, '/')
	out = strconv.AppendUint(out, uint64(h), 16)
	return string(out)
}

// oracle is a job's expected output, computed from the generated records
// and the index contents they define, without running the program: the
// value expected for input record "s%08d" is want[i].
type oracle struct {
	want []string
	fp   uint64 // the service's sorted-output fingerprint of want
}

// recordIndex parses the generator's record key "s%08d".
func recordIndex(key string) (int, bool) {
	if len(key) < 2 || key[0] != 's' {
		return 0, false
	}
	i, err := strconv.Atoi(key[1:])
	return i, err == nil
}

// newOracle builds an oracle from the input file: value(key) gives the
// expected lookup values of a join key.
func newOracle(input *dfs.File, value func(key string) []string) (*oracle, error) {
	o := &oracle{}
	for _, c := range input.Chunks {
		recs, err := c.Records()
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			i, ok := recordIndex(r.Key)
			if !ok {
				return nil, fmt.Errorf("unexpected input key %q", r.Key)
			}
			for len(o.want) <= i {
				o.want = append(o.want, "")
			}
			o.want[i] = digest(value(workloads.SyntheticKey(r.Value)))
		}
	}
	// Record keys are distinct and of one width, so index order is the
	// sorted order the service fingerprints in.
	h := fnv.New64a()
	for i, v := range o.want {
		fmt.Fprintf(h, "s%08d\x00%s\xff", i, v)
	}
	o.fp = h.Sum64()
	return o, nil
}

// kvOracle: the generator maps every key that occurs to one l-byte value.
func kvOracle(input *dfs.File, l int) (*oracle, error) {
	val := []string{strings.Repeat("v", l)}
	return newOracle(input, func(string) []string { return val })
}

// adxOracle: the buildable index holds one "ix(key)" entry per source
// record with that key.
func adxOracle(input *dfs.File) (*oracle, error) {
	counts := make(map[string]int)
	for _, c := range input.Chunks {
		recs, err := c.Records()
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			counts[workloads.SyntheticKey(r.Value)]++
		}
	}
	return newOracle(input, func(k string) []string {
		vals := make([]string, counts[k])
		for i := range vals {
			vals[i] = "ix(" + k + ")"
		}
		return vals
	})
}

// check compares a job's output file with the oracle. It returns the
// number of wrong, duplicate and missing records and an order-insensitive
// fingerprint of the output (the sum of per-record FNV-1a hashes).
func (o *oracle) check(out *dfs.File) (int, uint64, error) {
	seen := make([]bool, len(o.want))
	bad := 0
	var fp uint64
	for _, c := range out.Chunks {
		recs, err := c.Records()
		if err != nil {
			return 0, 0, err
		}
		for _, r := range recs {
			fp += fnv64(r.Key, r.Value)
			i, ok := recordIndex(r.Key)
			if !ok || i >= len(o.want) || seen[i] || r.Value != o.want[i] {
				bad++
				continue
			}
			seen[i] = true
		}
	}
	for _, s := range seen {
		if !s {
			bad++
		}
	}
	return bad, fp, nil
}

// fnv64 is FNV-1a of key, a zero byte, and value.
func fnv64(key, value string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h *= 1099511628211
	for i := 0; i < len(value); i++ {
		h = (h ^ uint64(value[i])) * 1099511628211
	}
	return h
}
