package cliflag

import (
	"reflect"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , ,b:2,", []string{"a:1", "b:2"}},
		{"", nil},
		{" , ", nil},
	} {
		if got := List(tc.spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("List(%q) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestTenantWeights(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    map[string]float64
		wantErr string // substring of the error; "" = success
	}{
		{"gold=10, silver=1.5", map[string]float64{"gold": 10, "silver": 1.5}, ""},
		{"", nil, ""},
		{"gold", nil, `bad -tenant-weights entry "gold"`},
		{"=3", nil, `bad -tenant-weights entry "=3"`},
		{"gold=10,,silver=1", nil, `bad -tenant-weights entry ""`},
		{"gold=heavy", nil, `bad -tenant-weights weight "heavy" for tenant "gold"`},
		{"gold=0", nil, `bad -tenant-weights weight "0"`},
		{"gold=-2", nil, `bad -tenant-weights weight "-2"`},
	} {
		got, err := TenantWeights(tc.spec)
		if !errMatches(err, tc.wantErr) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TenantWeights(%q) = %v, %v; want %v, error containing %q", tc.spec, got, err, tc.want, tc.wantErr)
		}
	}
}

func TestAutoscale(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		min, max int
		bad      bool
	}{
		{"1:5", 1, 5, false},
		{" 2 : 2 ", 2, 2, false},
		{"", 0, 0, false},
		{"5", 0, 0, true},
		{"a:5", 0, 0, true},
		{"1:", 0, 0, true},
		{"0:5", 0, 0, true},
		{"4:3", 0, 0, true},
	} {
		min, max, err := Autoscale(tc.spec)
		if (err != nil) != tc.bad || min != tc.min || max != tc.max {
			t.Errorf("Autoscale(%q) = %d, %d, %v; want %d, %d, error %v", tc.spec, min, max, err, tc.min, tc.max, tc.bad)
		}
		if err != nil && !strings.Contains(err.Error(), "bad -autoscale") {
			t.Errorf("Autoscale(%q) error %q does not name the flag", tc.spec, err)
		}
	}
}

func TestSpeeds(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    []float64
		wantErr string
	}{
		{"1, 0.5,2", []float64{1, 0.5, 2}, ""},
		{"", nil, ""},
		{"1,,2", nil, `bad -sed-speeds entry ""`},
		{"1,fast", nil, `bad -sed-speeds entry "fast"`},
		{"1,0", nil, `bad -sed-speeds entry "0"`},
		{"-1", nil, `bad -sed-speeds entry "-1"`},
	} {
		got, err := Speeds(tc.spec)
		if !errMatches(err, tc.wantErr) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Speeds(%q) = %v, %v; want %v, error containing %q", tc.spec, got, err, tc.want, tc.wantErr)
		}
	}
}

// errMatches reports whether err is nil exactly when want is empty, and
// otherwise contains it.
func errMatches(err error, want string) bool {
	if want == "" {
		return err == nil
	}
	return err != nil && strings.Contains(err.Error(), want)
}
