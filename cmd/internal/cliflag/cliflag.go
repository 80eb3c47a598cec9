// Package cliflag parses the list- and pair-valued flags of oarun's daemon
// mode (-ring, -tenant-weights, -autoscale, -sed-speeds); oaload reads its
// -addr member list with List too.
package cliflag

import (
	"fmt"
	"strconv"
	"strings"
)

// List parses a comma-separated list (the -ring members): whitespace
// trimmed, empties dropped.
func List(spec string) []string {
	var out []string
	for _, p := range strings.Split(spec, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// TenantWeights parses the -tenant-weights "gold=10,silver=1" into a weight
// map; an empty spec is no weights.
func TenantWeights(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad -tenant-weights entry %q (want name=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -tenant-weights weight %q for tenant %q (want a positive number)", val, name)
		}
		out[name] = w
	}
	return out, nil
}

// Autoscale parses the -autoscale "min:max" fleet bounds; an empty spec
// (autoscaling off) parses to (0, 0).
func Autoscale(spec string) (min, max int, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	lo, hi, ok := strings.Cut(spec, ":")
	if ok {
		min, err = strconv.Atoi(strings.TrimSpace(lo))
		if err == nil {
			max, err = strconv.Atoi(strings.TrimSpace(hi))
		}
	}
	if !ok || err != nil || min < 1 || max < min {
		return 0, 0, fmt.Errorf("bad -autoscale %q (want min:max with 1 <= min <= max)", spec)
	}
	return min, max, nil
}

// Speeds parses the -sed-speeds list of relative speed factors; an empty
// spec is no factors.
func Speeds(spec string) ([]float64, error) {
	if spec == "" {
		return nil, nil
	}
	var out []float64
	for _, p := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -sed-speeds entry %q (want a positive factor)", p)
		}
		out = append(out, v)
	}
	return out, nil
}
