# End-to-end CLI smoke: train → prune → map → report → fault → serve on a
# tiny budget, including a deployment-artifact save and a serve cold-start
# from it; any non-zero exit fails the test, and every expect_error case
# must exit 1 with a diagnostic.
function(run)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " pretty "${ARGN}")
    message(FATAL_ERROR "command failed (${rc}): ${pretty}")
  endif()
endfunction()

# Expects the CLI to reject the invocation: exit 1 with an "error: ..."
# line on stderr matching `pattern`. A crash (a signal, not exit 1) fails.
function(expect_error pattern)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  ERROR_VARIABLE _stderr OUTPUT_VARIABLE _stdout)
  string(REPLACE ";" " " pretty "${ARGN}")
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "expected exit 1, got '${rc}': ${pretty}")
  endif()
  if(NOT _stderr MATCHES "error: .*${pattern}")
    message(FATAL_ERROR "stderr lacks '${pattern}': ${pretty}\n${_stderr}")
  endif()
endfunction()

set(common --net resnet18 --dataset cifar10 --width-mult 0.0625
    --image-size 8 --train-per-class 8 --test-per-class 4)
run(${CLI} train ${common} --epochs 2 --out ${WORK}/smoke.bin)
run(${CLI} prune ${common} --in ${WORK}/smoke.bin --cp-rate 4
    --admm-epochs 1 --retrain-epochs 1 --out ${WORK}/smoke_pruned.bin
    --save-artifact ${WORK}/smoke_deploy.tadc)
run(${CLI} map --net resnet18 --width-mult 0.0625 --image-size 8
    --classes 10 --in ${WORK}/smoke_pruned.bin)
run(${CLI} report --net resnet18 --width-mult 0.0625 --image-size 8
    --classes 10 --in ${WORK}/smoke_pruned.bin)
run(${CLI} fault ${common} --in ${WORK}/smoke_pruned.bin --rate 0.05
    --trials 1 --remap)
run(${CLI} serve ${common} --in ${WORK}/smoke_pruned.bin --requests 24
    --workers 2 --max-batch 4)
run(${CLI} loadgen ${common} --in ${WORK}/smoke_pruned.bin --requests 24
    --workers 2 --max-batch 4 --qps 200 --deterministic
    --json ${WORK}/smoke_loadgen.json)
# Millisecond cold-start: serve and loadgen straight from the artifact,
# without --in (no checkpoint, no mapping, no calibration).
run(${CLI} serve --artifact ${WORK}/smoke_deploy.tadc --dataset cifar10
    --image-size 8 --train-per-class 8 --test-per-class 4 --requests 24
    --workers 2 --max-batch 4)
run(${CLI} loadgen --artifact ${WORK}/smoke_deploy.tadc --dataset cifar10
    --image-size 8 --train-per-class 8 --test-per-class 4 --requests 24
    --workers 2 --max-batch 4 --qps 200 --deterministic
    --json ${WORK}/smoke_loadgen_artifact.json)
# Multi-tenant fleet: a second artifact version (fresh init, same shape)
# via map --save-artifact, then two tenants served from two artifacts with
# one live hot-swap, reported as JSON.
run(${CLI} map ${common} --classes 10
    --save-artifact ${WORK}/smoke_deploy_v2.tadc)
run(${CLI} fleet --dataset cifar10 --image-size 8 --train-per-class 8
    --test-per-class 4 --workers 2 --deterministic
    --tenant "alpha=${WORK}/smoke_deploy.tadc,weight=2,requests=24"
    --tenant "beta=${WORK}/smoke_deploy_v2.tadc,priority=1,requests=16,mmap"
    --swap "alpha=${WORK}/smoke_deploy_v2.tadc@0.5"
    --json ${WORK}/smoke_fleet.json)
file(READ ${WORK}/smoke_fleet.json fleet_json)
foreach(key tenants aggregate loadgen output_digest artifact_digest
        adc_conversions)
  if(NOT fleet_json MATCHES "\"${key}\"")
    message(FATAL_ERROR "fleet JSON missing key \"${key}\"")
  endif()
endforeach()
# Unknown flags and tenant keys must be an error, not a silent default.
expect_error("--cp-rat" ${CLI} map --net resnet18 --width-mult 0.0625
    --image-size 8 --classes 10 --in ${WORK}/smoke_pruned.bin --cp-rat 4)
expect_error("--pipeline-stages" ${CLI} serve
    --artifact ${WORK}/smoke_deploy.tadc --dataset cifar10 --image-size 8
    --train-per-class 8 --test-per-class 4 --requests 8 --pipeline-stages 2)
expect_error("'stages'" ${CLI} fleet --dataset cifar10 --image-size 8
    --train-per-class 8 --test-per-class 4
    --tenant "t=${WORK}/smoke_deploy.tadc,stages=2")
# Numbers parse strictly: a negative batch (which would wrap to SIZE_MAX),
# a trailing suffix, an exponent or a word is an error naming the flag or
# key.
expect_error("--max-batch" ${CLI} serve --artifact ${WORK}/smoke_deploy.tadc
    --dataset cifar10 --image-size 8 --train-per-class 8 --test-per-class 4
    --requests 8 --max-batch -1)
foreach(bad -1 4x 1e3 abc)
  expect_error("'max-batch'" ${CLI} fleet --dataset cifar10 --image-size 8
      --train-per-class 8 --test-per-class 4 --requests 8
      --tenant "t=${WORK}/smoke_deploy.tadc,max-batch=${bad}")
endforeach()
