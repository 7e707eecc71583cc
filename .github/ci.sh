# Shell functions for the tier1 workflow; each step that runs the CLI sources
# this file.  A failed check returns 1, which fails the step under `bash -e`.

# same_outputs DIR_A DIR_B PATTERN...: every pattern matches at least one file
# in DIR_A, and each match has the bytes of the file of the same name in DIR_B.
same_outputs() {
  local a=$1 b=$2 pattern path
  shift 2
  for pattern in "$@"; do
    for path in "$a"/$pattern; do
      if [ ! -e "$path" ]; then
        echo "same_outputs: no file in $a matches $pattern" >&2
        return 1
      fi
      cmp "$path" "$b/${path##*/}" || return 1
    done
  done
}

# exits_with STATUS OUT CMD...: CMD exits with STATUS, and a config error
# (status 2) leaves no output directory OUT behind.
exits_with() {
  local want=$1 out=$2 status=0
  shift 2
  "$@" || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "exits_with: '$*' exited with $status, not $want" >&2
    return 1
  fi
  if [ "$want" -eq 2 ] && [ -e "$out" ]; then
    echo "exits_with: '$*' left $out behind" >&2
    return 1
  fi
}

# with_keys BASE 'KEY = VALUE'...: the config file BASE with each KEY's line
# dropped and 'KEY = VALUE' appended; the parser takes lines in any order.
with_keys() {
  local line drop=()
  for line in "${@:2}"; do drop+=(-e "^${line%% = *} = "); done
  grep -v "${drop[@]}" "$1"
  printf '%s\n' "${@:2}"
}
