package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// peakRSS returns the process's peak resident set size in MiB, as the kernel
// reports it (VmHWM in /proc/self/status). It is the memory a user of the
// process sees, and unlike a sampled heap gauge it does not depend on where
// samples fall in the collector's cycle.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: /proc/self/status has no VmHWM line")
}
