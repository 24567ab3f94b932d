package main

import (
	"syscall"
	"time"
	"unsafe"
)

// cpuTime returns the CPU time the process has used so far, user plus
// system, summed over its threads.
//
// The closed-loop latencies, qps and setup_s are timed with it instead of
// the wall clock. On a shared VM the host takes the vCPUs away for
// stretches of milliseconds, for minutes at a time (steal time); a wall
// clock charges every such stretch to whatever call was running, so the
// same code measured minutes apart differs by up to 2×. Linux with
// paravirtual steal accounting leaves stolen time out of a task's run
// time, so this clock counts only the work the process did. With one call
// in flight at a time it equals the call's wall time on an idle host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only EFAULT or EINVAL, neither possible here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadTime returns the CPU time the calling thread has used so far. The
// caller must be locked to its thread (runtime.LockOSThread).
func threadTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e)
	}
	return time.Duration(ts.Nano())
}
