package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// hostFingerprint names the machine and the code a result came from: CPU
// model, logical CPUs, GOMAXPROCS, Go version, and a digest of the
// repository's Go sources. The digest stands for the commit because a
// benchmark checkout need not be a git repository.
func hostFingerprint(root, out string) string {
	return fmt.Sprintf("cpu=%q numcpu=%d gomaxprocs=%d go=%s source=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		sourceDigest(root, out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod of the repository in path
// order, skipping hidden directories, the benchmark's own directory and
// out, its output directory.
func sourceDigest(root, out string) string {
	skip := map[string]bool{absPath(filepath.Join(root, "bench")): true, absPath(out): true}
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || skip[absPath(p)]) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func absPath(p string) string {
	if a, err := filepath.Abs(p); err == nil {
		return a
	}
	return p
}
