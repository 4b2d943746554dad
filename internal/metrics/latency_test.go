package metrics

import "testing"

func TestPercentile(t *testing.T) {
	v := []float64{50, 10, 40, 30, 20} // unsorted on purpose
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {10, 10}, {50, 30}, {90, 50}, {99, 50}, {100, 50},
	}
	for _, c := range cases {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(%.0f) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// Input must stay untouched (Percentile sorts a copy).
	if v[0] != 50 || v[4] != 20 {
		t.Errorf("Percentile mutated its input: %v", v)
	}
}
