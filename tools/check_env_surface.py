#!/usr/bin/env python3
"""Check that the library has one configuration surface.

Usage:
    check_env_surface.py [repo_root]

Fails (exit 1) when
  * `getenv` appears in any file under src/ other than src/util/env.cpp, or
  * the set of "KATO_*" names passed to the env readers (env_count,
    env_path, env_raw, env_warn) under src/ differs from the set of
    library variables in README's "Environment variables" section.

Tool variables (read by the Python scripts, not the library) are listed in
that section too and are excluded from the comparison; they must still be
documented there.

Only the Python standard library is used.
"""

import pathlib
import re
import sys

ENV_FILE = "src/util/env.cpp"
TOOL_VARIABLES = {"KATO_BENCH_TOL"}
READER_CALL = re.compile(
    r"\benv_(?:count|path|raw|warn)\(\s*\"(KATO_[A-Z0-9_]+)\"")
TABLE_NAME = re.compile(r"^\|\s*`(KATO_[A-Z0-9_]+)")


def source_files(root):
    return sorted(p for p in (root / "src").rglob("*")
                  if p.suffix in (".cpp", ".hpp", ".h", ".cc"))


def documented_names(readme):
    """KATO_* names in the first cell of the env section's table rows."""
    names = set()
    in_section = False
    for line in readme.splitlines():
        if line.startswith("#"):
            in_section = line.strip("# ").lower() == "environment variables"
            continue
        if in_section:
            m = TABLE_NAME.match(line)
            if m:
                names.add(m.group(1))
    return names


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    errors = []
    read = set()
    for path in source_files(root):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        if rel != ENV_FILE and "getenv" in text:
            errors.append("%s: calls getenv; read the environment through "
                          "util/env.hpp" % rel)
        read.update(READER_CALL.findall(text))

    documented = documented_names((root / "README.md").read_text())
    if not documented:
        errors.append("README.md: no 'Environment variables' table found")
    for name in sorted(TOOL_VARIABLES - documented):
        errors.append("README.md: tool variable %s is not documented" % name)
    library = documented - TOOL_VARIABLES
    for name in sorted(read - library):
        errors.append("%s is read under src/ but missing from README's "
                      "environment table" % name)
    for name in sorted(library - read):
        errors.append("%s is documented in README but no env reader under "
                      "src/ reads it" % name)

    for e in errors:
        print("check_env_surface: " + e)
    if errors:
        return 1
    print("check_env_surface: ok (%d library variables: %s)"
          % (len(read), ", ".join(sorted(read))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
