// Package units defines the physical quantities used throughout the
// chiplet-network simulator: simulated time at picosecond resolution,
// byte counts, and link bandwidth.
//
// Simulated time is deliberately not time.Duration: the simulator needs
// sub-nanosecond resolution (an L1 hit on the EPYC 9634 is 1.19 ns) and a
// distinct type keeps wall-clock time from leaking into simulation logic.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a point in, or span of, simulated time measured in picoseconds.
// An int64 of picoseconds covers about 106 days of simulated time, far
// beyond any experiment in this repository.
type Time int64

// Common spans of simulated time.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanos builds a Time from a floating-point nanosecond count, rounding to
// the nearest picosecond.
func Nanos(ns float64) Time { return Time(math.Round(ns * float64(Nanosecond))) }

// Micros builds a Time from a floating-point microsecond count.
func Micros(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// String renders t using the largest unit that keeps the value >= 1,
// e.g. "1.24ns", "34.3ns", "1.5us".
func (t Time) String() string {
	switch abs := t; {
	case abs < 0 && t != math.MinInt64: // -MinInt64 overflows; it prints in ps
		return "-" + (-t).String()
	case abs == 0:
		return "0s"
	case abs < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case abs < Microsecond:
		return trimFloat(t.Nanoseconds()) + "ns"
	case abs < Millisecond:
		return trimFloat(t.Microseconds()) + "us"
	case abs < Second:
		return trimFloat(float64(t)/float64(Millisecond)) + "ms"
	default:
		return trimFloat(t.Seconds()) + "s"
	}
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// ByteSize is a count of bytes. Cache capacities use binary multiples
// (KiB, MiB); bandwidth and transfer volumes use the decimal multiples the
// paper reports (GB = 1e9 bytes).
type ByteSize int64

// Binary multiples, used for cache and working-set sizes.
const (
	Byte ByteSize = 1
	KiB  ByteSize = 1024 * Byte
	MiB  ByteSize = 1024 * KiB
	GiB  ByteSize = 1024 * MiB
)

// Decimal multiples, used for transfer volumes and bandwidth.
const (
	KB ByteSize = 1000 * Byte
	MB ByteSize = 1000 * KB
	GB ByteSize = 1000 * MB
)

// CacheLine is the transfer granularity of every load/store interconnect
// in the modelled platforms.
const CacheLine ByteSize = 64

// String renders the size with a binary suffix when it divides evenly
// (cache sizes) and a decimal suffix otherwise.
func (b ByteSize) String() string {
	switch {
	case b < 0 && b != math.MinInt64: // -MinInt64 overflows; it prints in B
		return "-" + (-b).String()
	case b >= GB && b%GB == 0:
		return fmt.Sprintf("%dGB", b/GB)
	case b >= GiB && b%GiB == 0:
		return fmt.Sprintf("%dGiB", b/GiB)
	case b >= MiB && b%MiB == 0:
		return fmt.Sprintf("%dMiB", b/MiB)
	case b >= KiB && b%KiB == 0:
		return fmt.Sprintf("%dKiB", b/KiB)
	case b >= GB:
		return trimFloat(float64(b)/float64(GB)) + "GB"
	case b >= MB:
		return trimFloat(float64(b)/float64(MB)) + "MB"
	case b >= KB:
		return trimFloat(float64(b)/float64(KB)) + "KB"
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth int64

// GBps builds a Bandwidth from the paper's customary unit, decimal
// gigabytes per second.
func GBps(v float64) Bandwidth { return Bandwidth(math.Round(v * 1e9)) }

// GBpsValue reports bw in decimal gigabytes per second.
func (bw Bandwidth) GBpsValue() float64 { return float64(bw) / 1e9 }

// String renders the bandwidth in GB/s or MB/s.
func (bw Bandwidth) String() string {
	switch {
	case bw < 0 && bw != math.MinInt64: // -MinInt64 overflows; it prints in B/s
		return "-" + (-bw).String()
	case bw >= Bandwidth(GB):
		return trimFloat(bw.GBpsValue()) + "GB/s"
	case bw >= Bandwidth(MB):
		return trimFloat(float64(bw)/1e6) + "MB/s"
	case bw >= Bandwidth(KB):
		return trimFloat(float64(bw)/1e3) + "KB/s"
	default:
		return fmt.Sprintf("%dB/s", int64(bw))
	}
}

// TimeToSend reports how long a message of the given size occupies a
// channel of this bandwidth: the serialization delay. A zero or negative
// bandwidth yields zero delay (an infinitely fast channel).
func (bw Bandwidth) TimeToSend(size ByteSize) Time {
	if bw <= 0 || size <= 0 {
		return 0
	}
	// ps = bytes * 1e12 / (bytes/s). Compute in big-enough integer space:
	// sizes here are at most a few MB and bandwidths at least ~1 MB/s, so
	// float64 keeps ample precision while avoiding int64 overflow.
	ps := float64(size) * 1e12 / float64(bw)
	if ps >= math.MaxInt64 {
		return Time(math.MaxInt64)
	}
	return Time(math.Round(ps))
}

// Rate reports the bandwidth achieved when volume bytes are moved over the
// span d. A non-positive span yields zero.
func Rate(volume ByteSize, d Time) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(math.Round(float64(volume) * 1e12 / float64(d)))
}

// Interval reports the steady-state gap between messages of the given size
// required to sustain rate bw; it is the pacing quantum used by
// rate-controlled traffic generators (the paper controls rates with NOP
// instructions — this is the simulated analogue). A non-positive rate
// yields an effectively infinite interval.
func Interval(size ByteSize, bw Bandwidth) Time {
	if bw <= 0 {
		return Time(math.MaxInt64)
	}
	return bw.TimeToSend(size)
}
