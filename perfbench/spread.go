package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runSpread reads saved contract lines (one JSON object per line, as the
// benchmark prints last) and prints, per metric, the median and the
// interquartile spread as a share of the median — the steadiness figure a
// metric's bound is compared against.
func runSpread(files []string) int {
	vals := map[string][]float64{}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var o output
			if json.Unmarshal(sc.Bytes(), &o) != nil || o.Metrics == nil {
				continue
			}
			for n, m := range o.Metrics {
				vals[n] = append(vals[n], m.Value)
			}
		}
		fh.Close()
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %4s %14s %10s\n", "metric", "n", "median", "iqr/median")
	for _, n := range names {
		q1, q2, q3, ok := quartiles(vals[n])
		if !ok {
			continue
		}
		s := 0.0
		if q2 != 0 {
			s = (q3 - q1) / q2
		}
		fmt.Printf("%-34s %4d %14.4f %10.4f\n", n, len(vals[n]), q2, s)
	}
	return 0
}
