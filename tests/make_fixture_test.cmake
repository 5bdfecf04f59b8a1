# Runs `ips_serve --make_fixture` on a nested directory under FIXTURE_ROOT
# that does not exist yet; fails unless it exits 0 and writes all four
# fixture files. Usage:
#   cmake -DIPS_SERVE=path/to/ips_serve -DFIXTURE_ROOT=dir -P make_fixture_test.cmake
file(REMOVE_RECURSE "${FIXTURE_ROOT}")
set(dir "${FIXTURE_ROOT}/nested/fixture")
execute_process(COMMAND "${IPS_SERVE}" "--make_fixture=${dir}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "ips_serve --make_fixture=${dir} exited ${status}")
endif()
foreach(name train.tsv test.tsv model.ipsrun model_alt.ipsrun)
  if(NOT EXISTS "${dir}/${name}")
    message(FATAL_ERROR "ips_serve --make_fixture did not write ${dir}/${name}")
  endif()
endforeach()
