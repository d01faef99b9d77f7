package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares module climber.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module climber\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the climber repository (no go.mod with module climber above the working directory)")
		}
		dir = parent
	}
}

// buildServers compiles the two real server binaries into binDir. The go
// build cache makes every run after the first a sub-second no-op.
func buildServers(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/climber-serve", "./cmd/climber-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build servers: %v\n%s", err, out)
	}
	return nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the server binds it; nothing else on a benchmark box
// races for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// proc is one running server process.
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// startProc launches bin with args, logging to logPath, and waits until
// GET /healthz answers 200.
func startProc(name, bin string, args []string, addr, logPath string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A server must never outlive the benchmark, even if the benchmark is
	// killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: kill() and stop() decide how it ends
		close(p.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited during start-up; see %s", name, logPath)
		default:
		}
		if resp, err := hc.Get(p.url("/healthz")); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, fmt.Errorf("%s not healthy after 60s; see %s", name, logPath)
}

// stop asks for a graceful shutdown (drain, final compaction) and waits;
// a process still alive after 30 s is killed.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// kill is the crash: SIGKILL, no drain, no flush.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.done
	p.log.Close()
}

// procSample is one reading of /proc/<pid>/{stat,status,io}.
type procSample struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM
	wchar int64         // bytes passed to write(2)
}

// clockTick is USER_HZ; fixed at 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

func (p *proc) sample() (procSample, error) {
	var s procSample
	base := "/proc/" + strconv.Itoa(p.cmd.Process.Pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return s, fmt.Errorf("short %s/stat", base)
	}
	ut, _ := strconv.ParseInt(rest[11], 10, 64)
	st, _ := strconv.ParseInt(rest[12], 10, 64)
	s.cpu = time.Duration(ut+st) * clockTick
	s.hwmKB = procField(base+"/status", "VmHWM:")
	s.wchar = procField(base+"/io", "wchar:")
	return s, nil
}

// procField returns the first integer after key in a "key: value" file,
// 0 when the file or key is missing (a sandbox may hide /proc/<pid>/io).
func procField(path, key string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
