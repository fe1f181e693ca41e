package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procCounts is the process's resource use at one instant. Client and
// servers share the process, so differences of two of these cover the whole
// serving stack plus the load generator.
type procCounts struct {
	cpu        time.Duration // user + system
	syscalls   int64         // read + write system calls (/proc/self/io)
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	mutexWait  float64 // seconds goroutines spent blocked on sync.Mutex
	peakRSSKB  int64
}

func readProc() procCounts {
	var p procCounts
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.peakRSSKB = ru.Maxrss
	}
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ": ")
			if ok && (k == "syscr" || k == "syscw") {
				n, _ := strconv.ParseInt(v, 10, 64) // a malformed line counts as 0
				p.syscalls += n
			}
		}
		f.Close()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocBytes, p.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.mutexWait = s[0].Value.Float64()
	}
	return p
}
