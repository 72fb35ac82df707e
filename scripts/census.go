//go:build ignore

// Census type-checks every non-test package of the module and of bench/ and
// prints one of two lists, its total last:
//
//	go run scripts/census.go unreached
//	go run scripts/census.go knobs
//
// unreached: exported funcs and methods declared under internal/ that no
// non-test code uses. A use is resolved by object identity, so two
// definitions that share a name are counted apart. A method also counts as
// used when a used interface method has its name, since a call through the
// interface reaches it; String, Error and Marshal*/Unmarshal* are exempt,
// because the standard library calls them.
//
// knobs: exported fields of exported *Config, *Options and *Request structs
// under internal/ that no non-test code sets. A set is a keyed composite
// literal or an assignment to a selector, anywhere but in the struct's own
// normalized() method, where it fills in its own defaults. A knob nothing
// turns is a constant with extra steps.
//
// Both totals are ratchets: scripts/check.sh fails when one exceeds what
// scripts/census.txt records. Only the standard library is used; the
// standard packages are type-checked from source.
//
// What unreached lists on purpose, and why it stays:
//
//	ckpt.(*MemMedium).Bytes   the set image the golden and byte-identity
//	                          tests of ckpt and svc compare
//	ckpt.(*MemMedium).Corrupt, netsim.(*Injector).Draws
//	                          fault-injection seams of the restore and wire tests
//	dedup.(*Index).Refs, .Len what the index tests' reference-count and
//	                          race checks read
//	huffman.FromLengths       the reference decoders in decode_ref_test.go
//	                          build their tables with it
//	netsim.JumboTenGbE        the nfs wsize ablation's second link
//	nfs.(Transfer).GoodputBps the nfs tests' bandwidth-ceiling checks
//	obs.(Span).Child          the explicit-parent span for goroutine fan-out;
//	                          the obs race and lane-packing tests are built on it
//	svc.(*Server).Usage       the admission ledger the svc tests hold to zero
//	                          after every abort, refusal and close
//	{sz,zfp}.(*Handle).CompressAppend, squant.(Handle).CompressAppend
//	                          ROADMAP item 7's client allocation budget needs
//	                          them: a dump that reuses its stream buffer
//
// What knobs lists on purpose, and why it stays:
//
//	advisor.SketchConfig.MaxSamples, .SegmentLen
//	                          FuzzSketch drives hostile values through them:
//	                          the clamps are the contract
//	ckpt.WriteOptions.Retry   the fault tests bound MaxAttempts with it
//	core.DumpConfig.TotalBytes, .Chip, .Codec, .Dataset, .Mount
//	                          the first four set only by the pricing goldens
//	                          and the datadump validation tests, Mount by
//	                          none; collapsing them would re-record the
//	                          core.dump pricing rows
//	svc.Config.Mount          the backpressure tests slow the shared mount
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// module is the import path of the repository root; bench/ is its nested
// module lcpio/bench, so every local directory maps to module + "/" + dir.
const module = "lcpio"

type pkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	tpkg  *types.Package
}

// loader type-checks local packages from their non-test files, and the
// standard library from source.
type loader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg // by import path
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != module && !strings.HasPrefix(path, module+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	return l.load(path, "."+strings.TrimPrefix(path, module))
}

func (l *loader) load(path, dir string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.tpkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.tpkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.tpkg, nil
}

func main() {
	if len(os.Args) != 2 || (os.Args[1] != "unreached" && os.Args[1] != "knobs") {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/census.go unreached|knobs")
		os.Exit(2)
	}
	fset := token.NewFileSet()
	l := &loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "scripts") {
			return filepath.SkipDir
		}
		_, err = l.load(path.Join(module, filepath.ToSlash(dir)), dir)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "census:", err)
		os.Exit(1)
	}
	var lines []string
	var what string
	if os.Args[1] == "unreached" {
		lines, what = unreached(fset, l.pkgs), "exported funcs under internal/ reached by no non-test Go"
	} else {
		lines, what = knobs(fset, l.pkgs), "exported option fields under internal/ set by no non-test Go"
	}
	sort.Strings(lines)
	for _, s := range lines {
		fmt.Println(s)
	}
	fmt.Printf("%7d  %s\n", len(lines), what)
}

func internal(p *pkg) bool { return strings.HasPrefix(p.path, module+"/internal/") }

// describe prints a declaration as file:line and its name, import paths
// shortened to package names.
func describe(fset *token.FileSet, pos token.Pos, name string) string {
	at := fset.Position(pos)
	return fmt.Sprintf("%s:%d  %s", at.Filename, at.Line, strings.ReplaceAll(name, module+"/internal/", ""))
}

var exempt = regexp.MustCompile(`^(String|Error|Marshal.*|Unmarshal.*)$`)

func unreached(fset *token.FileSet, pkgs map[string]*pkg) []string {
	used := map[*types.Func]bool{}
	viaIface := map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			used[fn.Origin()] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaIface[fn.Name()] = true
			}
		}
	}
	var out []string
	for _, p := range pkgs {
		if !internal(p) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || exempt.MatchString(fd.Name.Name) {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if !used[fn] && !(fd.Recv != nil && viaIface[fn.Name()]) {
					out = append(out, describe(fset, fd.Pos(), fn.FullName()))
				}
			}
		}
	}
	return out
}

var optionStruct = regexp.MustCompile(`^([A-Z]\w*)?(Config|Options|Request)$`)

func knobs(fset *token.FileSet, pkgs map[string]*pkg) []string {
	owner := map[*types.Var]*types.TypeName{}
	for _, p := range pkgs {
		if !internal(p) {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !optionStruct.MatchString(ts.Name.Name) {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								owner[p.info.Defs[id].(*types.Var)] = p.info.Defs[ts.Name].(*types.TypeName)
							}
						}
					}
				}
				return true
			})
		}
	}
	set := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self *types.TypeName // the struct whose own (value-receiver) normalized() d is
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == "normalized" {
					if named, ok := p.info.Defs[fd.Name].Type().(*types.Signature).Recv().Type().(*types.Named); ok {
						self = named.Obj()
					}
				}
				mark := func(id *ast.Ident) {
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() && owner[v.Origin()] != self {
						set[v.Origin()] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							mark(id)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								mark(sel.Sel)
							}
						}
					case *ast.IncDecStmt:
						if sel, ok := n.X.(*ast.SelectorExpr); ok {
							mark(sel.Sel)
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for v, tn := range owner {
		if !set[v] {
			out = append(out, describe(fset, v.Pos(), tn.Pkg().Path()+"."+tn.Name()+"."+v.Name()))
		}
	}
	return out
}
