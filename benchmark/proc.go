package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat. The kernel
// reports them in USER_HZ, which is 100 on every Linux ABI regardless of
// the kernel's own tick rate.
const userHz = 100

// parseStatCPU extracts user+system CPU seconds from the content of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')': utime and stime are fields 14 and 15 of the line, the 12th
// and 13th after the command.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return float64(utime+stime) / userHz, nil
}

// parseVmHWM extracts the peak resident set size in MB from the content
// of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuSeconds reads the CPU time a live process has used so far.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// peakRSSMB reads the peak resident set size of a live process.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}
