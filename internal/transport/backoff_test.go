package transport

import (
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name    string
		bo      Backoff
		attempt int
		want    time.Duration
	}{
		{"defaults first", Backoff{}, 0, DefaultBackoffMin},
		{"defaults second", Backoff{}, 1, 2 * DefaultBackoffMin},
		{"defaults capped", Backoff{}, 100, DefaultBackoffMax},
		{"explicit first", Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond}, 0, 10 * time.Millisecond},
		{"explicit doubles", Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond}, 2, 40 * time.Millisecond},
		{"explicit reaches cap", Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond}, 3, 80 * time.Millisecond},
		{"explicit stays capped", Backoff{Min: 10 * time.Millisecond, Max: 80 * time.Millisecond}, 50, 80 * time.Millisecond},
		{"max below min", Backoff{Min: 50 * time.Millisecond, Max: time.Millisecond}, 5, 50 * time.Millisecond},
		{"negative attempt", Backoff{Min: 10 * time.Millisecond}, -3, 10 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.bo.Base(tc.attempt); got != tc.want {
				t.Fatalf("Base(%d) = %v, want %v", tc.attempt, got, tc.want)
			}
		})
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	bo := Backoff{Min: 40 * time.Millisecond, Max: time.Second}
	for attempt := 0; attempt < 6; attempt++ {
		base := bo.Base(attempt)
		lo := time.Duration(float64(base) * (1 - BackoffJitter))
		// The extremes of the rnd range stay within bounds...
		for _, r := range []float64{0, 0.5, 0.999999} {
			d := bo.Delay(attempt, func() float64 { return r })
			if d < lo || d > base {
				t.Fatalf("attempt %d rnd %v: delay %v outside [%v, %v]", attempt, r, d, lo, base)
			}
		}
		// ...and so does the real randomness.
		for i := 0; i < 100; i++ {
			if d := bo.Delay(attempt, nil); d < lo || d > base {
				t.Fatalf("attempt %d: random delay %v outside [%v, %v]", attempt, d, lo, base)
			}
		}
	}
}
