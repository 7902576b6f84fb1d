package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{1240 * Picosecond, "1.24ns"},
		{34300 * Picosecond, "34.3ns"},
		{Microsecond, "1us"},
		{1500 * Nanosecond, "1.5us"},
		{Millisecond, "1ms"},
		{2 * Second, "2s"},
		{-Nanosecond, "-1ns"},
		{math.MinInt64, "-9223372036854775808ps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Picosecond).Nanoseconds(); got != 1.5 {
		t.Errorf("Nanoseconds() = %v, want 1.5", got)
	}
	if got := Nanos(1.24); got != 1240*Picosecond {
		t.Errorf("Nanos(1.24) = %v, want 1240ps", int64(got))
	}
	if got := Micros(2.5); got != 2500*Nanosecond {
		t.Errorf("Micros(2.5) = %v, want 2500ns", int64(got))
	}
	if got := (3 * Second).Seconds(); got != 3 {
		t.Errorf("Seconds() = %v, want 3", got)
	}
	if got := (5 * Microsecond).Microseconds(); got != 5 {
		t.Errorf("Microseconds() = %v, want 5", got)
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{0, "0B"},
		{64, "64B"},
		{32 * KiB, "32KiB"},
		{512 * KiB, "512KiB"},
		{128 * MiB, "128MiB"},
		{GiB, "1GiB"},
		{2 * GB, "2GB"},
		{1500 * KB, "1.5MB"},
		{-KiB, "-1KiB"},
		{math.MinInt64, "-9223372036854775808B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	if got := GBps(14.9).String(); got != "14.9GB/s" {
		t.Errorf("GBps(14.9).String() = %q", got)
	}
	if got := Bandwidth(250 * MB).String(); got != "250MB/s" {
		t.Errorf("250MB/s: got %q", got)
	}
	if got := Bandwidth(5 * KB).String(); got != "5KB/s" {
		t.Errorf("5KB/s: got %q", got)
	}
	if got := Bandwidth(12).String(); got != "12B/s" {
		t.Errorf("12B/s: got %q", got)
	}
	if got := Bandwidth(math.MinInt64).String(); got != "-9223372036854775808B/s" {
		t.Errorf("MinInt64: got %q", got)
	}
}

func TestTimeToSend(t *testing.T) {
	// 64 B over 64 GB/s should take exactly 1 ns.
	bw := GBps(64)
	if got := bw.TimeToSend(CacheLine); got != Nanosecond {
		t.Errorf("64B @ 64GB/s = %v, want 1ns", got)
	}
	// Zero bandwidth is treated as infinitely fast.
	if got := Bandwidth(0).TimeToSend(CacheLine); got != 0 {
		t.Errorf("zero bandwidth TimeToSend = %v, want 0", got)
	}
	if got := bw.TimeToSend(0); got != 0 {
		t.Errorf("zero size TimeToSend = %v, want 0", got)
	}
}

func TestRateRoundTrip(t *testing.T) {
	// Rate() inverts TimeToSend for exact cases.
	bw := GBps(32)
	d := bw.TimeToSend(1 * MB)
	got := Rate(1*MB, d)
	if math.Abs(got.GBpsValue()-32) > 0.01 {
		t.Errorf("Rate round trip = %v, want ~32GB/s", got)
	}
	if Rate(MB, 0) != 0 {
		t.Error("Rate over zero span should be 0")
	}
}

func TestInterval(t *testing.T) {
	// Sustaining 64 GB/s with 64 B lines needs one line per ns.
	if got := Interval(CacheLine, GBps(64)); got != Nanosecond {
		t.Errorf("Interval = %v, want 1ns", got)
	}
	if got := Interval(CacheLine, 0); got != Time(math.MaxInt64) {
		t.Errorf("Interval at zero rate = %v, want max", got)
	}
}

// Property: serialization delay is monotonic in size and antitonic in rate.
func TestTimeToSendMonotonic(t *testing.T) {
	f := func(a, b uint16, r uint32) bool {
		small, big := ByteSize(a), ByteSize(a)+ByteSize(b)+1
		bw := Bandwidth(r%1000000 + 1000) // >= 1 KB/s
		return bw.TimeToSend(small) <= bw.TimeToSend(big)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(sz uint16, r uint32) bool {
		slow := Bandwidth(r%100000 + 1000)
		fast := slow * 2
		s := ByteSize(sz) + 1
		return fast.TimeToSend(s) <= slow.TimeToSend(s)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: Rate(v, TimeToSend(v)) recovers the bandwidth within rounding.
func TestRateInvertsTimeToSend(t *testing.T) {
	f := func(v uint32, r uint32) bool {
		vol := ByteSize(v%(1<<20) + 1024)
		bw := Bandwidth(uint64(r)%uint64(100*GB) + uint64(MB))
		d := bw.TimeToSend(vol)
		if d <= 0 {
			return true
		}
		got := Rate(vol, d)
		diff := math.Abs(float64(got-bw)) / float64(bw)
		return diff < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
